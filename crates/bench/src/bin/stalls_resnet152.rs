//! `results/stalls_resnet152.txt`: the MXM feed census of the compiled
//! ResNet-152 — what `tsp-prof resnet152 --stalls` prints, under the name the
//! capture loop (a bin per `results/*.txt`) looks it up by.

fn main() {
    let (model, _) = tsp_bench::workloads::resnet_model(152);
    print!("{}", tsp_bench::stalls::render(&model));
}
