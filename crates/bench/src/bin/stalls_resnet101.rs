//! `results/stalls_resnet101.txt`: the MXM feed census of the compiled
//! ResNet-101 — what `tsp-prof resnet101 --stalls` prints, under the name the
//! capture loop (a bin per `results/*.txt`) looks it up by.

fn main() {
    let (model, _) = tsp_bench::workloads::resnet_model(101);
    print!("{}", tsp_bench::stalls::render(&model));
}
