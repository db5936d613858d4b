//! `results/stalls_resnet50.txt`: the MXM feed census of the compiled
//! ResNet-50 — what `tsp-prof resnet50 --stalls` prints, under the name the
//! capture loop (a bin per `results/*.txt`) looks it up by.

fn main() {
    let (model, _) = tsp_bench::workloads::resnet_model(50);
    print!("{}", tsp_bench::stalls::render(&model));
}
