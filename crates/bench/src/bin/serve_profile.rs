//! `results/serve_profile.txt`: one served run — what `tsp-prof serve`
//! prints before its `wrote` line, under the name the capture loop (a bin
//! per `results/*.txt`) looks it up by.

fn main() {
    print!("{}", tsp_bench::serve_profile::render().0);
}
