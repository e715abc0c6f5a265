//! Regenerates the paper's fig7. Usage: `cargo run -p rc-bench --bin fig7 [--scale N]`.

fn main() {
    let args = rc_bench::Args::from_env("usage: fig7 [--scale N]", &[]);
    let eval = rc_bench::report::Evaluation::collect(args.scale());
    println!("{}", rc_bench::report::text_table(&rc_bench::report::fig7(&eval)));
}
