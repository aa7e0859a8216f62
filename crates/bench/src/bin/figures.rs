//! Regenerate every table and figure of the paper's evaluation (§3).
//!
//! ```text
//! figures [--scale N] [--save DIR] [--stream DIR]
//!         [fig1|fig2|fig3|fig4|fig5|fig6|fig7|
//!          overhead|tuning|effectiveness|addrviews|all]
//! ```
//!
//! `--save DIR` writes the two collection experiments as bundles
//! (`DIR/exp1`, `DIR/exp2`) that `mp-er-print` can analyze standalone.
//!
//! `--stream DIR` collects through the bounded-memory streaming path
//! instead: events spill into `DIR/exp1.mpes` / `DIR/exp2.mpes` as the
//! runs progress, and every figure is generated from the experiments
//! *reloaded from those files*.
//!
//! `fig1..fig7` come from one pair of collection experiments (the
//! paper's two `collect` lines); `overhead` is the §2.1 `-xhwcprof`
//! cost; `tuning` is the §3.3 layout/page-size study; `effectiveness`
//! is the §3.2.5 backtracking analysis; `addrviews` are the §4
//! future-work views (segments/pages/cache lines/instances).

use mcf_bench::{
    run_cycles, run_paper_experiments, run_paper_experiments_streamed, Layout, PaperRun, Scale,
};
use memprof_core::analyze::Analysis;
use minic::CompileOptions;
use simsparc_machine::CounterEvent;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::paper();
    let mut what = "all".to_string();
    let mut save: Option<std::path::PathBuf> = None;
    let mut stream: Option<std::path::PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale.n_trips = args[i].parse().expect("bad --scale");
            }
            "--save" => {
                i += 1;
                save = Some(std::path::PathBuf::from(&args[i]));
            }
            "--stream" => {
                i += 1;
                stream = Some(std::path::PathBuf::from(&args[i]));
            }
            w => what = w.to_string(),
        }
        i += 1;
    }

    let needs_experiments = matches!(
        what.as_str(),
        "all"
            | "fig1"
            | "fig2"
            | "fig3"
            | "fig4"
            | "fig5"
            | "fig6"
            | "fig7"
            | "effectiveness"
            | "addrviews"
    );

    let run = if needs_experiments {
        eprintln!(
            "collecting experiments (n_trips = {}, window = {})...",
            scale.n_trips, scale.window
        );
        let r = if let Some(dir) = &stream {
            let (r, stats) = run_paper_experiments_streamed(scale, dir, 8192);
            for (name, s) in [("exp1", &stats[0]), ("exp2", &stats[1])] {
                eprintln!(
                    "streamed {name}: {} hwc + {} clock events, {} stacks \
                     ({:.1}% intern hits), {} segments, peak {} buffered, {} bytes",
                    s.hwc_events,
                    s.clock_events,
                    s.distinct_stacks,
                    s.intern_hit_rate_pct(),
                    s.segments_spilled,
                    s.peak_buffered_events,
                    s.bytes_written
                );
            }
            r
        } else {
            run_paper_experiments(scale)
        };
        if let Some(dir) = &save {
            for (sub, exp) in [("exp1", &r.exp1), ("exp2", &r.exp2)] {
                let d = dir.join(sub);
                exp.save(&d).expect("save experiment");
                r.program
                    .image
                    .save(&d.join("image.txt"))
                    .expect("save image");
                r.program.syms.save(&d.join("syms.txt")).expect("save syms");
                eprintln!("saved {}", d.display());
            }
        }
        Some(r)
    } else {
        None
    };

    match what.as_str() {
        "fig1" => fig1(run.as_ref().unwrap()),
        "fig2" => fig2(run.as_ref().unwrap()),
        "fig3" => fig3(run.as_ref().unwrap()),
        "fig4" => fig4(run.as_ref().unwrap()),
        "fig5" => fig5(run.as_ref().unwrap()),
        "fig6" => fig6(run.as_ref().unwrap()),
        "fig7" => fig7(run.as_ref().unwrap()),
        "effectiveness" => effectiveness(run.as_ref().unwrap()),
        "addrviews" => addrviews(run.as_ref().unwrap()),
        "overhead" => overhead(scale),
        "tuning" => tuning(scale),
        "all" => {
            let run = run.as_ref().unwrap();
            fig1(run);
            fig2(run);
            fig3(run);
            fig4(run);
            fig5(run);
            fig6(run);
            fig7(run);
            effectiveness(run);
            addrviews(run);
            overhead(scale);
            tuning(scale);
        }
        other => {
            eprintln!("unknown figure `{other}`");
            std::process::exit(2);
        }
    }
}

fn analysis(run: &PaperRun) -> Analysis<'_> {
    Analysis::new(&[&run.exp1, &run.exp2], &run.program.syms)
}

fn header(title: &str) {
    println!("\n======================================================================");
    println!("{title}");
    println!("======================================================================");
}

fn fig1(run: &PaperRun) {
    header("Figure 1: performance metrics for the <Total> function");
    let a = analysis(run);
    print!("{}", a.total_metrics().render());
    let c = &run.exp1.run.counts;
    println!(
        "(ground truth: {} cycles, {} instructions)",
        c.cycles, c.insts
    );
    let stall_pct = 100.0 * c.ec_stall_cycles as f64 / c.cycles as f64;
    let miss_rate = 100.0 * c.ec_read_miss as f64 / c.ec_ref as f64;
    println!(
        "E$ stall = {stall_pct:.1}% of run time (paper: 54%); \
         E$ read miss rate = {miss_rate:.1}% (paper: 6.4%)"
    );
    let dtlb_cost = 100.0 * (run.exp2.run.counts.dtlb_miss * 100) as f64 / c.cycles as f64;
    println!("DTLB misses at ~100 cycles each = {dtlb_cost:.1}% of run time (paper: ~5%)");
}

fn fig2(run: &PaperRun) {
    header("Figure 2: the function list");
    let a = analysis(run);
    let sort = a.user_cpu_col().unwrap_or(0);
    print!("{}", a.render_function_list(sort));
}

fn fig3(run: &PaperRun) {
    header("Figure 3: annotated source of the critical loop (refresh_potential)");
    let a = analysis(run);
    let text = a
        .render_annotated_source("refresh_potential")
        .expect("refresh_potential must exist");
    // Print only the hot region (the critical loop), like the paper.
    let lines: Vec<&str> = text.lines().collect();
    let hot: Vec<usize> = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.starts_with("##"))
        .map(|(i, _)| i)
        .collect();
    if let (Some(&first), Some(&last)) = (hot.first(), hot.last()) {
        for l in &lines[first.saturating_sub(4)..(last + 5).min(lines.len())] {
            println!("{l}");
        }
    } else {
        print!("{text}");
    }
}

fn fig4(run: &PaperRun) {
    header("Figure 4: annotated disassembly of the critical loop");
    let a = analysis(run);
    let text = a
        .render_annotated_disasm("refresh_potential", &run.program.image.text)
        .expect("refresh_potential must exist");
    // The full function is long; print the hot window.
    let lines: Vec<&str> = text.lines().collect();
    let hot: Vec<usize> = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.starts_with("##"))
        .map(|(i, _)| i)
        .collect();
    if let (Some(&first), Some(&last)) = (hot.first(), hot.last()) {
        for l in &lines[first.saturating_sub(6)..(last + 7).min(lines.len())] {
            println!("{l}");
        }
    } else {
        print!("{text}");
    }
}

fn fig5(run: &PaperRun) {
    header("Figure 5: PCs ranked by E$ Read Misses");
    let a = analysis(run);
    let col = a
        .col_by_event(CounterEvent::ECReadMiss)
        .expect("ecrm collected");
    print!("{}", a.render_pc_list(col, 17));
}

fn fig6(run: &PaperRun) {
    header("Figure 6: data objects ranked by E$ Stall Cycles");
    let a = analysis(run);
    let col = a
        .col_by_event(CounterEvent::ECStallCycles)
        .expect("ecstall collected");
    print!("{}", a.render_data_objects(col));
}

fn fig7(run: &PaperRun) {
    header("Figure 7: data-object structure:node expansion");
    let a = analysis(run);
    print!(
        "{}",
        a.render_struct_expansion("node")
            .expect("node struct known")
    );
    let report = a
        .instances("node", 512, 10)
        .expect("instance view available");
    println!(
        "\n{:.0}% of the {}-byte node objects straddle a 512-byte E$ line (paper: 28%)",
        report.straddle_fraction * 100.0,
        report.struct_size
    );
}

fn effectiveness(run: &PaperRun) {
    header("§3.2.5: apropos backtracking effectiveness");
    let a = analysis(run);
    println!(
        "{:<18} {:>8} {:>14} {:>17} {:>14}",
        "counter", "events", "unresolvable", "unascertainable", "effective"
    );
    for e in a.effectiveness() {
        println!(
            "{:<18} {:>8} {:>14} {:>17} {:>13.1}%",
            e.title, e.total, e.unresolvable, e.unascertainable, e.effectiveness_pct
        );
    }
    println!("(paper: >99% ecstall, ~100% ecrm, 100% dtlbm, ~94% ecref)");

    // Ground-truth scoring the paper could not do: of the validated
    // candidates, how many are the exact true trigger?
    for (name, exp) in [("exp1", &run.exp1), ("exp2", &run.exp2)] {
        let a1 = Analysis::new(&[exp], &run.program.syms);
        for col in a1.data_columns() {
            let mut validated = 0u64;
            let mut exact = 0u64;
            let b = &a1.batch;
            for i in 0..b.len() {
                if b.col[i] as usize != col {
                    continue;
                }
                if let memprof_core::analyze::Attribution::DataObject { pc, .. } = b.attribution(i)
                {
                    validated += 1;
                    let (xi, ei, _) = b.src_of(i);
                    if a1.experiments[xi].hwc_events[ei].truth_trigger_pc == pc {
                        exact += 1;
                    }
                }
            }
            if validated > 0 {
                println!(
                    "{name}/{}: {:.2}% of validated candidates are the exact true trigger \
                     (simulator ground truth)",
                    a1.columns[col].title,
                    100.0 * exact as f64 / validated as f64
                );
            }
        }
    }
}

fn addrviews(run: &PaperRun) {
    header("§4 (future work, implemented): address-space views");
    let a = analysis(run);

    println!("-- by memory segment (events with reconstructed EAs) --");
    for row in a.segments() {
        println!(
            "{:>8}: {:>8} events",
            row.segment.name(),
            row.samples.iter().sum::<u64>()
        );
    }

    println!("\n-- top 5 pages (8 KB) --");
    for row in a.pages(8192, 5) {
        println!(
            "{:#012x} ({}): {:>6} events",
            row.page_base,
            row.segment.name(),
            row.samples.iter().sum::<u64>()
        );
    }

    println!("\n-- top 5 E$ lines (512 B) --");
    for row in a.cache_lines(512, 5) {
        println!(
            "{:#012x}: {:>6} events",
            row.line_base,
            row.samples.iter().sum::<u64>()
        );
    }

    println!("\n-- hottest structure:node instances --");
    if let Some(report) = a.instances("node", 512, 5) {
        for (base, samples) in &report.instances {
            println!(
                "node @ {base:#012x}: {:>5} events",
                samples.iter().sum::<u64>()
            );
        }
        println!(
            "straddle fraction: {:.1}% of referenced {}-byte nodes cross an E$ line",
            report.straddle_fraction * 100.0,
            report.struct_size
        );
    }
}

fn overhead(scale: Scale) {
    header("§2.1: runtime overhead of -xhwcprof (paper: ~1.3%)");
    let inst = scale.instance();
    let config = mcf_bench::paper_machine_config();
    let (r_plain, c_plain) = run_cycles(
        &inst,
        Layout::Baseline,
        CompileOptions::default(),
        config.clone(),
    );
    let (r_prof, c_prof) = run_cycles(&inst, Layout::Baseline, CompileOptions::profiling(), config);
    assert_eq!(r_plain.cost, r_prof.cost, "results must agree");
    let pct = 100.0 * (c_prof.cycles as f64 - c_plain.cycles as f64) / c_plain.cycles as f64;
    println!("baseline build:   {:>14} cycles", c_plain.cycles);
    println!("-xhwcprof build:  {:>14} cycles", c_prof.cycles);
    println!("overhead: {pct:.2}% (paper: ~1.3%)");
    println!(
        "instructions: {} -> {} (+{:.2}% from nop padding / unfilled delay slots)",
        c_plain.insts,
        c_prof.insts,
        100.0 * (c_prof.insts as f64 - c_plain.insts as f64) / c_plain.insts as f64
    );
}

fn tuning(scale: Scale) {
    header("§3.3: performance improvements from the analysis");
    let inst = scale.instance();
    let base_cfg = mcf_bench::paper_machine_config();
    let large_cfg = base_cfg.clone().with_large_heap_pages();
    let opts = CompileOptions::default();

    let (r0, c0) = run_cycles(&inst, Layout::Baseline, opts, base_cfg.clone());
    let (r1, c1) = run_cycles(&inst, Layout::Tuned, opts, base_cfg);
    let (r2, c2) = run_cycles(&inst, Layout::Baseline, opts, large_cfg.clone());
    let (r3, c3) = run_cycles(&inst, Layout::Tuned, opts, large_cfg);
    for (r, name) in [
        (&r0, "baseline"),
        (&r1, "tuned layout"),
        (&r2, "large pages"),
        (&r3, "combined"),
    ] {
        assert_eq!(
            r.cost, r0.cost,
            "{name}: optimization must not change results"
        );
    }

    let speedup = |c: u64| 100.0 * (c0.cycles as f64 - c as f64) / c0.cycles as f64;
    println!(
        "{:<34} {:>14} {:>9} {:>12} {:>10}",
        "variant", "cycles", "speedup", "E$ rd miss", "DTLB miss"
    );
    println!(
        "{:<34} {:>14} {:>8.1}% {:>12} {:>10}",
        "baseline (120B node)", c0.cycles, 0.0, c0.ec_read_miss, c0.dtlb_miss
    );
    println!(
        "{:<34} {:>14} {:>8.1}% {:>12} {:>10}",
        "reordered+padded structs (paper 16.2%)",
        c1.cycles,
        speedup(c1.cycles),
        c1.ec_read_miss,
        c1.dtlb_miss
    );
    println!(
        "{:<34} {:>14} {:>8.1}% {:>12} {:>10}",
        "-xpagesize_heap=512k (paper 3.9%)",
        c2.cycles,
        speedup(c2.cycles),
        c2.ec_read_miss,
        c2.dtlb_miss
    );
    println!(
        "{:<34} {:>14} {:>8.1}% {:>12} {:>10}",
        "combined (paper 20.7%)",
        c3.cycles,
        speedup(c3.cycles),
        c3.ec_read_miss,
        c3.dtlb_miss
    );
}
