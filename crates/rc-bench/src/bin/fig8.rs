//! Regenerates the paper's fig8. Usage: `cargo run -p rc-bench --bin fig8 [--scale N]`.

fn main() {
    let args = rc_bench::Args::from_env("usage: fig8 [--scale N]", &[]);
    let eval = rc_bench::report::Evaluation::collect(args.scale());
    println!("{}", rc_bench::report::text_table(&rc_bench::report::fig8(&eval)));
}
