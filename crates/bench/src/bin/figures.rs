//! Regenerates every table and figure of the COARSE paper's evaluation,
//! validates them against the paper-expectation registry, and produces
//! machine-readable fidelity and perf artifacts.
//!
//! ```text
//! cargo run --release -p coarse-bench --bin figures -- list
//! cargo run --release -p coarse-bench --bin figures -- fig16
//! cargo run --release -p coarse-bench --bin figures -- validate all
//! cargo run --release -p coarse-bench --bin figures -- report --json out.json
//! cargo run --release -p coarse-bench --bin figures -- bench ci
//! ```

use coarse_bench::{expectations, mechanisms, micro, selfbench, training};

/// With `--features prof-alloc`, every allocation this binary makes is
/// counted and attributed to the profiling region open at the time; the
/// `alloc` section of `profile-<scenario>.json` is then populated.
#[cfg(feature = "prof-alloc")]
#[global_allocator]
static ALLOC: coarse_simcore::prof::alloc_counter::CountingAlloc =
    coarse_simcore::prof::alloc_counter::CountingAlloc;

fn hr(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

fn table1() {
    hr("TABLE I — Evaluated machine instances");
    println!(
        "{:<12} {:<6} {:>5} {:>8} {:>9} {:>6} {:>7}",
        "machine", "GPU", "GPUs", "workers", "mem devs", "p2p", "NVLink"
    );
    for r in training::table1() {
        println!(
            "{:<12} {:<6} {:>5} {:>8} {:>9} {:>6} {:>7}",
            r.name, r.sku, r.gpus, r.workers, r.mem_devices, r.p2p, r.nvlink
        );
    }
    println!("(paper: half of each machine's GPUs emulate CCI memory devices)");
}

fn fig2() {
    hr("FIG 2 — Communication overhead of centralized parameter-server training");
    println!("paper: communication blocks up to 76% of training time (§II-B)");
    println!(
        "{:<12} {:<12} {:>6} {:>16}",
        "machine", "model", "batch", "comm fraction"
    );
    for r in training::fig2() {
        println!(
            "{:<12} {:<12} {:>6} {:>15.1}%",
            r.machine,
            r.model,
            r.batch,
            r.comm_fraction * 100.0
        );
    }
}

fn fig3() {
    hr("FIG 3 — CCI prototype peer-to-peer bandwidth (64 MiB transfers)");
    println!("paper: GPU Direct gives 17x read / 4x write over CCI load-store");
    println!("{:<14} {:>12} {:>12}", "mode", "read GiB/s", "write GiB/s");
    let f = micro::fig3();
    for (label, r, w) in &f.rows {
        println!("{label:<14} {r:>12.3} {w:>12.3}");
    }
    println!(
        "measured speedups: read {:.1}x (paper 17x), write {:.1}x (paper 4x)",
        f.read_speedup, f.write_speedup
    );
}

fn fig8() {
    hr("FIG 8 — PCIe device-to-device bidirectional bandwidth matrices (GiB/s)");
    for panel in micro::fig8_all() {
        println!("\n-- {} --", panel.machine);
        print!("{:>6}", "");
        for j in 0..panel.matrix.len() {
            print!("{:>7}", format!("gpu{j}"));
        }
        println!();
        for (i, row) in panel.matrix.iter().enumerate() {
            print!("{:>6}", format!("gpu{i}"));
            for v in row {
                print!("{v:>7.1}");
            }
            println!();
        }
        println!(
            "local pair: {:.1} GiB/s unidirectional, {:.1} GiB/s bidirectional",
            panel.local_uni_gib, panel.local_bidir_gib
        );
    }
    println!("\n(paper: V100 shows anti-locality — remote > local; P100 shows locality;");
    println!(" §III-E quotes 13 GiB/s uni / 25 GiB/s bidir for an SDSC local pair)");
}

fn fig9() {
    hr("FIG 9 — FIFO vs partitioned pipelined synchronization");
    let f = mechanisms::fig9();
    println!("two unequal tensors (24 MiB + 8 MiB), client to same-switch proxy:");
    println!("  FIFO (whole tensors):   {}", f.fifo_makespan);
    println!("  partitioned (2 MiB):    {}", f.partitioned_makespan);
    println!("  speedup:                {:.2}x", f.speedup);
    println!("(paper: partitioning fills both bus directions without idle gaps)");
}

fn fig10() {
    hr("FIG 10 — Deadlock avoidance: FCFS vs queue-based proxy scheduling");
    let f = mechanisms::fig10();
    println!(
        "FCFS:        completed {:?}, deadlocked {:?}",
        f.fcfs.completed, f.fcfs.deadlocked
    );
    println!(
        "queue-based: completed {:?}, deadlocked {:?}",
        f.queue_based.completed, f.queue_based.deadlocked
    );
    println!("(paper: FCFS deadlocks on the crossed tensor-1/tensor-2 scenario;");
    println!(" per-client queues synchronize all queues concurrently)");
}

fn fig13() {
    hr("FIG 13 — CCI prototype bandwidth vs access size");
    let f = micro::fig13();
    print!("{:>10}", "size");
    for (label, _, _) in &f.curves {
        print!(
            " {:>16} {:>8}",
            format!("{label} rd"),
            format!("{label} wr")
        );
    }
    println!();
    for (i, s) in f.sizes.iter().enumerate() {
        print!("{:>10}", s.to_string());
        for (_, read, write) in &f.curves {
            print!(" {:>16.3} {:>8.3}", read[i], write[i]);
        }
        println!();
    }
    println!("(paper: CCI flat; GPU Indirect bounded by CCI; GPU Direct 9-17x read,");
    println!(" 1.25-4x write)");
}

fn fig14() {
    hr("FIG 14 — Prototype DMA bandwidth vs access size");
    let f = micro::fig14();
    println!("{:>10} {:>12} {:>12}", "size", "read GiB/s", "write GiB/s");
    for (s, r, w) in &f.points {
        println!("{:>10} {r:>12.3} {w:>12.3}", s.to_string());
    }
    println!(
        "saturation (>=99% of peak) at {} — paper: 2 MiB",
        f.saturation_size
    );
}

fn fig15() {
    hr("FIG 15 — Client-to-proxy profiling (routing-table inputs)");
    for f in micro::fig15_all() {
        println!("\n-- {} (client = worker 0) --", f.machine);
        println!(
            "  local proxy:       latency {} bandwidth {:>6.2} GiB/s",
            f.local.latency,
            f.local.bandwidth / (1u64 << 30) as f64
        );
        println!(
            "  best remote proxy: latency {} bandwidth {:>6.2} GiB/s",
            f.best_remote.latency,
            f.best_remote.bandwidth / (1u64 << 30) as f64
        );
        println!("  bandwidth sweep (GiB/s):");
        println!("  {:>10} {:>8} {:>8}", "size", "local", "remote");
        for ((s, l), (_, r)) in f.local_sweep.iter().zip(&f.remote_sweep) {
            println!("  {:>10} {l:>8.2} {r:>8.2}", s.to_string());
        }
    }
}

fn fig16() {
    hr("FIG 16 — Training speedup (vs DENSE; panels e-f vs AllReduce)");
    println!(
        "{:<12} {:<12} {:<12} {:>6} {:>10} {:>10}",
        "panel", "machine", "model", "batch", "AllReduce", "COARSE"
    );
    for r in training::fig16_single_node() {
        println!(
            "{:<12} {:<12} {:<12} {:>6} {:>9.1}x {:>9.1}x",
            r.id,
            r.machine,
            r.model,
            r.batch,
            r.allreduce_speedup(),
            r.coarse_speedup()
        );
    }
    println!("(paper bands: a 3.3-4.3x; b 11.3-13.3x; c ~3.4x; d 10.8-13.8x)");

    let e = training::fig16e();
    println!("\n-- fig16e: single-node batch-size experiment (BERT-Large, V100) --");
    println!(
        "  AllReduce b2: {:>8.1} samples/s (iter {})",
        e.allreduce_b2.throughput, e.allreduce_b2.iteration_time
    );
    println!(
        "  COARSE    b2: {:>8.1} samples/s (iter {})",
        e.coarse_b2.throughput, e.coarse_b2.iteration_time
    );
    println!(
        "  COARSE    b4: {:>8.1} samples/s (iter {})",
        e.coarse_b4.throughput, e.coarse_b4.iteration_time
    );
    println!("  AllReduce b4 fits in 16 GiB: {}", e.allreduce_b4_fits);
    println!(
        "  COARSE(b4) over AllReduce(b2): +{:.1}% — paper: +48.3%",
        (e.speedup - 1.0) * 100.0
    );

    let f = training::fig16f();
    println!("\n-- fig16f: multi-node (2x AWS V100, 25 Gbit/s network) --");
    println!(
        "  AllReduce 2-node b2:  {:>8.1} samples/s (iter {})",
        f.allreduce_2node.throughput, f.allreduce_2node.iteration_time
    );
    println!(
        "  COARSE    2-node b2:  {:>8.1} samples/s (iter {})",
        f.coarse_2node.throughput, f.coarse_2node.iteration_time
    );
    println!(
        "  COARSE    1-node b4:  {:>8.1} samples/s (iter {})",
        f.coarse_1node_b4.throughput, f.coarse_1node_b4.iteration_time
    );
    println!(
        "  COARSE(2n) over AllReduce(2n): +{:.1}% — paper: up to +42.7%",
        (f.speedup_2node - 1.0) * 100.0
    );
    println!(
        "  COARSE(1n,b4) over AllReduce(2n): +{:.1}% — paper: +38.6%",
        (f.speedup_1node_b4 - 1.0) * 100.0
    );
}

fn fig17() {
    hr("FIG 17 — Blocked communication time (normalized to DENSE)");
    println!(
        "{:<12} {:<12} {:<12} {:>10} {:>10} {:>10}",
        "panel", "machine", "model", "DENSE", "AllReduce", "COARSE"
    );
    for r in training::fig16_single_node() {
        println!(
            "{:<12} {:<12} {:<12} {:>9.0}% {:>9.1}% {:>9.1}%",
            r.id,
            r.machine,
            r.model,
            100.0,
            r.normalized_blocked(&r.allreduce) * 100.0,
            r.normalized_blocked(&r.coarse) * 100.0
        );
    }
    println!("(paper: AllReduce and COARSE reduce blocked communication to <10% of the");
    println!(" naive CCI parameter server; COARSE beats AllReduce on P100/V100 and");
    println!(" trails slightly on the p2p-less T4)");

    // Panels e-f: blocked communication normalized to AllReduce.
    let f = training::fig16f();
    let e = training::fig16e();
    println!(
        "
-- fig17e/f: normalized to AllReduce --"
    );
    println!(
        "single node (b4 COARSE vs b2 AllReduce): COARSE blocked = {:.0}% of AllReduce",
        e.coarse_b4.blocked_comm.as_secs_f64() / e.allreduce_b2.blocked_comm.as_secs_f64() * 100.0
    );
    println!(
        "two nodes: COARSE blocked = {:.0}% of AllReduce (paper: −23…−46%)",
        f.coarse_2node.blocked_comm.as_secs_f64() / f.allreduce_2node.blocked_comm.as_secs_f64()
            * 100.0
    );
}

fn ablations() {
    hr("ABLATIONS");
    let u = mechanisms::ablation_ring_bandwidth_utilization();
    println!(
        "ring AllReduce bandwidth utilization (V100 PCIe, vs full-duplex): {:.0}% — paper: as low as 34% on DGX-1",
        u * 100.0
    );
    let (routed, forced) = mechanisms::ablation_routing();
    println!(
        "tensor routing on V100: routed {routed:.1} GiB/s vs forced-local {forced:.1} GiB/s ({:.2}x)",
        routed / forced
    );
    let (sweep, opt) = mechanisms::ablation_dualsync();
    println!("dual-sync estimate sweep (m -> T_train):");
    for p in sweep.iter().step_by(4) {
        println!(
            "  m = {:>10}  T_train = {}",
            p.proxy_bytes.to_string(),
            p.estimate
        );
    }
    println!(
        "  optimizer choice: m = {} (T_train = {})",
        opt.proxy_bytes, opt.estimate
    );
    let (same, opposite) = mechanisms::ablation_bidirectional_groups();
    println!(
        "sync-core group directions: same {} vs opposite {} ({:.2}x)",
        same,
        opposite,
        same.as_secs_f64() / opposite.as_secs_f64()
    );
    println!("coherence protocol bytes per write round (4 MiB region):");
    for (n, bytes) in mechanisms::ablation_coherence_scaling(8) {
        println!("  {n} sharers: {bytes} bytes");
    }
    if let Some(c) = mechanisms::ablation_ring_tree_crossover() {
        println!("ring-vs-tree collective crossover on the CCI mesh: {c}");
    }
    println!(
        "
straggler sensitivity (50 iters, 245 ms compute, jitter sigma sweep):"
    );
    println!(
        "{:>8} {:>16} {:>16} {:>12} {:>12}",
        "sigma", "barrier wait", "overlap wait", "barrier util", "overlap util"
    );
    for sigma in [0.0f64, 0.1, 0.2, 0.4] {
        let (b, o) = coarse_trainsim::compare_straggler(4, sigma);
        println!(
            "{sigma:>8.1} {:>16} {:>16} {:>11.0}% {:>11.0}%",
            b.mean_wait.to_string(),
            o.mean_wait.to_string(),
            b.utilization * 100.0,
            o.utilization * 100.0
        );
    }
    println!(
        "
node scaling (BERT-Large b2, 25 Gbit/s network):"
    );
    println!(
        "{:>6} {:>18} {:>18} {:>14}",
        "nodes", "AllReduce iter", "COARSE iter", "COARSE gain"
    );
    for p in coarse_trainsim::node_scaling(&coarse_models::zoo::bert_large(), 2, &[1, 2, 4]) {
        println!(
            "{:>6} {:>18} {:>18} {:>13.1}%",
            p.nodes,
            p.allreduce.iteration_time.to_string(),
            p.coarse.iteration_time.to_string(),
            (p.coarse_gain() - 1.0) * 100.0
        );
    }
}

fn timeline() {
    hr("TIMELINE — one steady-state COARSE iteration (BERT-Large, AWS V100)");
    use coarse_fabric::machines::{aws_v100, PartitionScheme};
    let machine = aws_v100();
    let part = machine.partition(PartitionScheme::OneToOne);
    let trace =
        coarse_trainsim::trace_coarse(&machine, &part, &coarse_models::zoo::bert_large(), 2);
    print!("{}", trace.render_gantt(76));
    println!("(the overlap structure behind Fig. 17d: pushes and proxy collectives ride");
    println!(" inside the backward window; only the dual-sync GPU ring and the final");
    println!(" pulls block the next iteration)");
}

fn capacity() {
    hr("EXTENSION — the capacity wall (GPT-2 XL, 1.5B params, 16 GiB GPUs)");
    let c = training::capacity_wall();
    println!(
        "max feasible per-GPU batch, everything on GPU:  {}",
        c.allreduce_max_batch
    );
    println!(
        "max feasible per-GPU batch, COARSE offload:     {}",
        c.coarse_max_batch
    );
    println!(
        "COARSE batch 1: iter {} | blocked {} | util {:.0}% | {:.1} samples/s",
        c.coarse_b1.iteration_time,
        c.coarse_b1.blocked_comm,
        c.coarse_b1.gpu_utilization() * 100.0,
        c.coarse_b1.throughput
    );
    println!("(§VI: \"COARSE leverages CCI memory devices to enable larger models");
    println!(" to be trained\" — at 1.5B parameters only the offloaded residency fits)");
}

/// `figures -- trace <scenario>`: records a fully traced COARSE run and
/// writes `trace-<scenario>.json` (Chrome trace-event format, loadable in
/// Perfetto or `chrome://tracing`) plus `trace-<scenario>.txt` (the text
/// summary, also printed).
fn trace_scenario(scenario: &str) {
    use coarse_fabric::machines::{aws_v100, sdsc_p100, PartitionScheme};
    let (machine, model, batch) = match scenario {
        "resnet50-coarse" => (aws_v100(), coarse_models::zoo::resnet50(), 64u32),
        "bert-coarse" => (aws_v100(), coarse_models::zoo::bert_large(), 2),
        "bert-p100-coarse" => (sdsc_p100(), coarse_models::zoo::bert_large(), 2),
        other => {
            eprintln!(
                "unknown trace scenario '{other}'; expected one of: \
                 resnet50-coarse bert-coarse bert-p100-coarse"
            );
            std::process::exit(2);
        }
    };
    hr(&format!(
        "TRACE — {} ({}, batch {batch}, 3 iterations)",
        scenario,
        machine.name()
    ));
    let part = machine.partition(PartitionScheme::OneToOne);
    let (result, trace) = coarse_trainsim::record_coarse_trace(&machine, &part, &model, batch, 3);
    println!(
        "iteration {} | blocked {} | {:.1} samples/s",
        result.iteration_time, result.blocked_comm, result.throughput
    );
    let summary = coarse_trainsim::summary_table(&trace, 10);
    print!("\n{summary}");
    let json_path = format!("trace-{scenario}.json");
    let txt_path = format!("trace-{scenario}.txt");
    write_artifact(&json_path, &coarse_trainsim::chrome_trace_json(&trace));
    write_artifact(&txt_path, &summary);
    println!("\nwrote {json_path} (open in Perfetto / chrome://tracing) and {txt_path}");
}

/// Every figure generator, in paper order.
const FIGURES: &[(&str, fn())] = &[
    ("table1", table1),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig16", fig16),
    ("fig17", fig17),
    ("ablations", ablations),
    ("capacity", capacity),
    ("timeline", timeline),
];

const TRACE_SCENARIOS: &str = "resnet50-coarse bert-coarse bert-p100-coarse";

fn usage() {
    let figures: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
    eprintln!(
        "usage: figures -- <subcommand>\n\
         \n\
         subcommands:\n\
         \x20 list                     list subcommands, figures, and scenarios\n\
         \x20 all                      regenerate every figure\n\
         \x20 <figure>                 one of: {}\n\
         \x20 validate [scenario|all]  score the simulator against the paper-expectation\n\
         \x20                          registry (exit 1 on any FAIL verdict)\n\
         \x20 report [scenario] [--json <path>]\n\
         \x20                          emit the fidelity report (scorecard + per-panel\n\
         \x20                          run reports) as versioned JSON\n\
         \x20 bench [label] [--baseline <file>]\n\
         \x20                          run the perf self-benchmark and write\n\
         \x20                          BENCH_<label>.json (default label: local);\n\
         \x20                          with --baseline, diff against a committed\n\
         \x20                          BENCH artifact — wall-clock drift warns,\n\
         \x20                          deterministic drift exits 1\n\
         \x20 profile [scenario]       run the self-profiling harness twice over a\n\
         \x20                          fig16 preset (default fig16d), verify the\n\
         \x20                          deterministic section is byte-identical, and\n\
         \x20                          write profile-<scenario>.json plus the\n\
         \x20                          collapsed-stack profile-<scenario>.folded\n\
         \x20 explain [scenario]       extract the critical path of a fig16 preset\n\
         \x20                          (default fig16d) under both COARSE and DENSE,\n\
         \x20                          print the per-class blame split, verify the\n\
         \x20                          report is byte-identical across two runs, and\n\
         \x20                          write explain-<scenario>.json plus the\n\
         \x20                          critical-path overlay explain-<scenario>.trace.json\n\
         \x20 lint [--json [path]]     run the simlint determinism & simulation-safety\n\
         \x20      [--baseline <file>] analyzer over the workspace sources; exit 1 on\n\
         \x20                          any un-waived diagnostic (default JSON path:\n\
         \x20                          lint-report.json); with --baseline, fail only\n\
         \x20                          on findings absent from the given earlier report\n\
         \x20 trace [scenario]         record a traced COARSE run; scenarios:\n\
         \x20                          {TRACE_SCENARIOS}\n\
         \x20 faults [scenario]        run a seeded fault-injection scenario over the\n\
         \x20                          fig16d panel and write fault-report-<scenario>.json;\n\
         \x20                          scenarios: {FAULT_SCENARIOS}\n\
         \x20 recover [preset]         run the recovery harness (reference multi-fault\n\
         \x20                          schedule, pool checkpoints, oracle battery) over\n\
         \x20                          a fig16 preset (default fig16d), verify two runs\n\
         \x20                          render byte-identical reports, and write\n\
         \x20                          recover-<preset>.json; exit 1 on any violation\n\
         \x20 recover sweep [preset]   same, across checkpoint intervals; writes the\n\
         \x20                          cost/recovery matrix recover-sweep-<preset>.json\n\
         \x20 chaos soak [cases]       randomized fault-schedule search with runtime\n\
         \x20                          oracles armed (default 500 cases); failures are\n\
         \x20                          shrunk and written as chaos-repro-<hash>.json\n\
         \x20 chaos run <preset> [seed]  one seeded chaos case over a fig16 preset\n\
         \x20 chaos replay <path>      re-run a chaos repro and verify it still fails\n\
         \x20                          the same way\n\
         \x20 chaos selftest           prove the pipeline catches a sabotaged retry\n\
         \x20                          order and shrinks it to <= 3 fault events",
        figures.join(" ")
    );
}

fn list() {
    println!("figures (regenerators, paper order):");
    for (name, _) in FIGURES {
        println!("  {name}");
    }
    println!("\nvalidate / report scenarios:");
    for s in expectations::scenarios() {
        let n = expectations::REGISTRY
            .iter()
            .filter(|e| e.scenario == s)
            .count();
        println!("  {s:<12} {n} expectation(s)");
    }
    println!("\ntrace scenarios:");
    for s in TRACE_SCENARIOS.split(' ') {
        println!("  {s}");
    }
    println!("\nfault scenarios:");
    for s in FAULT_SCENARIOS.split(' ') {
        println!("  {s}");
    }
    println!("\nchaos modes:");
    for s in ["soak", "run", "replay", "selftest"] {
        println!("  {s}");
    }
    println!("\nrecover presets (plus 'sweep <preset>'):");
    for s in coarse_trainsim::Scenario::presets() {
        println!("  {s}");
    }
    println!("\nprofile scenarios:");
    for s in coarse_trainsim::Scenario::presets() {
        println!("  {s}");
    }
    println!("\nlint rules:");
    for r in coarse_simlint::rules::RULES {
        println!("  {}", r.id);
    }
}

/// `figures -- validate [scenario|all]`: evaluates the expectation registry
/// and prints the fidelity scorecard. Exits 1 if any expectation fails.
fn validate(scenario: &str) {
    let filter = if scenario == "all" {
        None
    } else {
        if !expectations::scenarios().contains(&scenario) {
            eprintln!(
                "unknown scenario '{scenario}'; expected 'all' or one of: {}",
                expectations::scenarios().join(" ")
            );
            std::process::exit(2);
        }
        Some(scenario)
    };
    hr(&format!("FIDELITY SCORECARD — {scenario}"));
    let card = expectations::Scorecard::evaluate(filter);
    print!("{}", card.render());
    if card.worst() == expectations::Verdict::Fail {
        std::process::exit(1);
    }
}

/// The Fig. 16 single-node panels as `RunReport` inputs — one
/// [`Scenario`](coarse_trainsim::Scenario) preset per panel.
fn panel_reports() -> Vec<coarse_trainsim::RunReport> {
    coarse_trainsim::Scenario::presets()
        .into_iter()
        .map(|name| coarse_trainsim::Scenario::preset(name).report())
        .collect()
}

/// Schema tag for the combined scorecard + run-report document.
const FIDELITY_SCHEMA: &str = "coarse.fidelity-report/v1";

/// `figures -- report [scenario] [--json <path>]`: the scorecard plus the
/// per-panel run reports as one versioned, byte-deterministic document.
fn report(scenario: Option<&str>, json_path: Option<&str>) {
    use coarse_simcore::json::JsonValue;
    if let Some(s) = scenario {
        if !expectations::scenarios().contains(&s) {
            eprintln!(
                "unknown scenario '{s}'; expected one of: {}",
                expectations::scenarios().join(" ")
            );
            std::process::exit(2);
        }
    }
    let card = expectations::Scorecard::evaluate(scenario);
    let with_panels = scenario.is_none_or(|s| s == "fig16" || s == "fig17");
    let runs: Vec<JsonValue> = if with_panels {
        panel_reports().iter().map(|r| r.to_json()).collect()
    } else {
        Vec::new()
    };
    let doc = JsonValue::object()
        .with("schema", JsonValue::str(FIDELITY_SCHEMA))
        .with("scorecard", card.to_json())
        .with("run_reports", JsonValue::Array(runs));
    let mut rendered = doc.render_pretty();
    rendered.push('\n');
    match json_path {
        Some(path) => {
            write_artifact(path, &rendered);
            print!("{}", card.render());
            println!("wrote {path}");
        }
        None => print!("{rendered}"),
    }
}

const FAULT_SCENARIOS: &str = "proxy-dropout link-degrade flaky-cci matrix";

/// Seed for the CI fault suite: fixed so two runs of the same binary
/// produce byte-identical artifacts.
const FAULT_SEED: u64 = 0xC0A2_5E01;

/// Builds the named seeded fault scenario over the `fig16d` panel
/// (BERT-Large on AWS V100) and returns it ready to run.
fn build_fault_scenario(name: &str) -> coarse_trainsim::Scenario {
    use coarse_simcore::faults::FaultPlan;
    use coarse_simcore::time::{SimDuration, SimTime};
    let base = coarse_trainsim::Scenario::preset("fig16d");
    let part = coarse_fabric::machines::aws_v100()
        .partition(coarse_fabric::machines::PartitionScheme::OneToOne);
    let devices: Vec<u32> = part.mem_devices.iter().map(|d| d.index() as u32).collect();
    let window = (
        SimTime::ZERO + SimDuration::from_millis(1),
        SimTime::ZERO + SimDuration::from_millis(500),
    );
    let plan = match name {
        // One seeded memory device drops out mid-run; COARSE must fail
        // over and finish on the survivors.
        "proxy-dropout" => FaultPlan::seeded_dropout(FAULT_SEED, &devices, window.0, window.1),
        // Every CCI-ring neighbor pair degrades by a seeded 1.5-4x factor
        // over a seeded sub-window. The window spans the whole 3-iteration
        // run (~900ms) so the steady-state (last) iteration is hit too —
        // a window that closes before the final iteration leaves the
        // reported period untouched.
        "link-degrade" => {
            let pairs: Vec<(u32, u32)> = (0..devices.len())
                .map(|i| (devices[i], devices[(i + 1) % devices.len()]))
                .collect();
            FaultPlan::seeded_degradation(
                FAULT_SEED,
                &pairs,
                window.0,
                SimTime::ZERO + SimDuration::from_millis(2_000),
                1.5,
                4.0,
            )
        }
        // Transient CCI transfer errors on every memory device: pushes
        // retry with exponential backoff.
        "flaky-cci" => {
            let mut plan = FaultPlan::new(FAULT_SEED);
            for &d in &devices {
                plan = plan.corrupt_transfers(d, SimTime::ZERO, SimTime::MAX, 200_000);
            }
            plan
        }
        other => {
            eprintln!("unknown fault scenario '{other}'; expected one of: {FAULT_SCENARIOS}");
            std::process::exit(2);
        }
    };
    base.faults(plan)
}

/// `figures -- faults <scenario>`: runs a seeded fault-injection scenario
/// over the fig16d panel, prints the resilience accounting, verifies the
/// run is deterministic (two same-seed runs must render byte-identical
/// reports), and writes `fault-report-<scenario>.json`.
fn faults(scenario: &str) {
    let names: Vec<&str> = if scenario == "matrix" {
        FAULT_SCENARIOS
            .split(' ')
            .filter(|s| *s != "matrix")
            .collect()
    } else {
        vec![scenario]
    };
    for name in names {
        let s = build_fault_scenario(name);
        hr(&format!(
            "FAULT SUITE — {name} (fig16d, seed {FAULT_SEED:#x})"
        ));
        let report = s.report();
        let again = s.report();
        assert_eq!(
            report.render(),
            again.render(),
            "same-seed fault runs must be byte-identical"
        );
        let f = report
            .faults
            .as_ref()
            .expect("fault scenarios carry a resilience summary");
        println!("injected faults:   {}", f.injected);
        println!("push retries:      {}", f.retries);
        println!("proxy failovers:   {}", f.failovers);
        println!("degraded to GPU:   {}", f.degraded_to_gpu);
        println!("recovery time:     {}", f.recovery_time);
        let clean = report
            .scheme(coarse_trainsim::Scheme::Coarse)
            .result()
            .expect("fig16d COARSE fits");
        println!(
            "iteration time:    {} (clean: {})",
            f.coarse.iteration_time, clean.iteration_time
        );
        let path = format!("fault-report-{name}.json");
        write_artifact(&path, &report.render());
        println!("wrote {path} (determinism check: two same-seed runs matched)");
    }
}

fn bench(label: &str, baseline: Option<&str>) {
    hr(&format!("PERF SELF-BENCHMARK — {label}"));
    let path = match selfbench::write_report(label) {
        Ok(path) => path,
        Err(e) => {
            eprintln!("error: cannot write bench artifact: {e}");
            std::process::exit(1);
        }
    };
    println!("\nwrote {path}");
    if let Some(base_path) = baseline {
        let parse = |p: &str| {
            let text = std::fs::read_to_string(p).unwrap_or_else(|e| {
                eprintln!("error: cannot read {p}: {e}");
                std::process::exit(1);
            });
            coarse_simcore::json::JsonValue::parse(&text).unwrap_or_else(|e| {
                eprintln!("error: {p} is not valid JSON: {e}");
                std::process::exit(1);
            })
        };
        let current = parse(&path);
        let base = parse(base_path);
        let cmp = selfbench::compare_reports(&current, &base, selfbench::WALL_TOLERANCE);
        for w in &cmp.warnings {
            println!("warning: {w}");
        }
        for e in &cmp.errors {
            eprintln!("error: {e}");
        }
        if !cmp.passed() {
            eprintln!("baseline gate vs {base_path}: FAIL (deterministic drift)");
            std::process::exit(1);
        }
        println!(
            "baseline gate vs {base_path}: OK ({} advisory warning(s))",
            cmp.warnings.len()
        );
    }
}

/// `figures -- profile <scenario>`: runs the self-profiling harness twice,
/// asserts the deterministic section is byte-identical across the two runs,
/// and writes `profile-<scenario>.json` (the `coarse.profile-report/v1`
/// document) plus `profile-<scenario>.folded` (collapsed stacks for
/// flamegraph tooling). Exits 2 with usage on an unknown scenario name.
fn profile(name: &str) {
    use coarse_trainsim::{profile_preset, TrainError};
    hr(&format!("SELF-PROFILE — {name}"));
    // Warm-up run, discarded: first-touch lazy initialization (stdio
    // buffers, allocator pools) would otherwise show up as extra
    // allocations in the first profiled run under `prof-alloc`.
    let warmup = profile_preset(name);
    let run = match warmup.and(profile_preset(name)) {
        Ok(run) => run,
        Err(TrainError::UnknownPreset { .. }) => {
            eprintln!(
                "unknown profile scenario '{name}'; scenarios: {}\n",
                coarse_trainsim::Scenario::presets().join(" ")
            );
            usage();
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let again = profile_preset(name).expect("second profiled run of a known preset");
    let (det_a, det_b) = (
        run.deterministic_json().render(),
        again.deterministic_json().render(),
    );
    if det_a != det_b {
        eprintln!("error: deterministic profile sections differ between two runs of '{name}'");
        std::process::exit(1);
    }
    println!(
        "dispatch: {} events dispatched",
        run.profiler.events_dispatched()
    );
    println!("{:<20} {:>12}", "region", "events");
    for &r in &coarse_simcore::prof::region::ALL {
        let events = run.profiler.region_events(r);
        if events > 0 {
            println!("{r:<20} {events:>12}");
        }
    }
    let mut doc = run.report_json().render_pretty();
    doc.push('\n');
    let json_path = format!("profile-{name}.json");
    write_artifact(&json_path, &doc);
    let folded_path = format!("profile-{name}.folded");
    write_artifact(&folded_path, &run.folded());
    println!("\nwrote {json_path}");
    println!("wrote {folded_path} (determinism check: two runs matched)");
}

/// `figures -- explain <scenario>`: runs the critical-path explanation
/// harness twice over a fig16 preset, asserts the
/// `coarse.explain-report/v1` document is byte-identical across the two
/// runs, prints the per-class blame split for both schemes, and writes
/// `explain-<scenario>.json` plus the Chrome-trace critical-path overlay
/// `explain-<scenario>.trace.json`. Exits 2 with usage on an unknown
/// scenario name.
fn explain(name: &str) {
    use coarse_simcore::critpath::class;
    use coarse_trainsim::{explain_preset, TrainError};
    hr(&format!("EXPLAIN — {name}"));
    let run = match explain_preset(name) {
        Ok(run) => run,
        Err(TrainError::UnknownPreset { .. }) => {
            eprintln!(
                "unknown explain scenario '{name}'; scenarios: {}\n",
                coarse_trainsim::Scenario::presets().join(" ")
            );
            usage();
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let again = explain_preset(name).expect("second explained run of a known preset");
    let (doc_a, doc_b) = (run.report_json().render(), again.report_json().render());
    if doc_a != doc_b {
        eprintln!("error: explain reports differ between two runs of '{name}'");
        std::process::exit(1);
    }
    println!("{:<16} {:>10} {:>10}", "class", "coarse", "dense");
    for c in class::ALL {
        let (fc, fd) = (
            run.coarse.explanation.fraction(c),
            run.dense.explanation.fraction(c),
        );
        if fc > 0.0 || fd > 0.0 {
            println!("{c:<16} {:>9.1}% {:>9.1}%", fc * 100.0, fd * 100.0);
        }
    }
    for (scheme, ex) in [
        ("coarse", &run.coarse.explanation),
        ("dense", &run.dense.explanation),
    ] {
        let dom = ex.dominant().unwrap_or("none");
        println!(
            "{scheme}: dominated by {dom} (eliminating it saves at most {:.1}%)",
            ex.speedup_bound(dom) * 100.0
        );
    }
    if let Some((link, util)) = run.coarse_links.first() {
        println!("busiest coarse link: {link} ({:.1}% busy)", util * 100.0);
    }
    let mut doc = run.report_json().render_pretty();
    doc.push('\n');
    let json_path = format!("explain-{name}.json");
    write_artifact(&json_path, &doc);
    let trace_path = format!("explain-{name}.trace.json");
    write_artifact(&trace_path, &run.overlay_trace_json().render());
    println!("\nwrote {json_path}");
    println!("wrote {trace_path} (determinism check: two runs matched)");
}

/// Iterations per recovery run: long enough for the reference schedule's
/// two dropouts to land in distinct checkpoint epochs, short enough for CI.
const RECOVER_ITERATIONS: u32 = 6;

/// Checkpoint cadence of the single-run mode (every other iteration).
const RECOVER_INTERVAL: u32 = 2;

/// Intervals the sweep mode measures (0 = never checkpoint).
const RECOVER_SWEEP_INTERVALS: &[u32] = &[0, 1, 2, 4];

/// Prints the headline numbers of one recovery report.
fn recover_summary(r: &coarse_trainsim::RecoveryReport) {
    println!(
        "schedule:          {} fault event(s); parameter image {}",
        r.schedule.specs().len(),
        r.image_bytes
    );
    println!("baseline wall:     {}", r.baseline_wall);
    println!(
        "checkpointed wall: {} ({} checkpoint(s), +{:.2}% overhead)",
        r.checkpointed_wall,
        r.checkpoints,
        r.checkpoint_overhead() * 100.0
    );
    println!(
        "pool vs disk:      {} vs {} per checkpoint ({:.1}% of disk)",
        r.pool_checkpoint_mean(),
        r.disk_checkpoint(),
        r.pool_vs_disk() * 100.0
    );
    println!("faulty wall:       {}", r.faulty.wall);
    println!(
        "recovery:          {} repair(s), {} restore(s), {} lost iteration(s), MTTR {}",
        r.faulty.repairs, r.faulty.restores, r.faulty.lost_iterations, r.faulty.mttr
    );
    println!("goodput:           {:.1}%", r.goodput() * 100.0);
    if r.violations.is_empty() {
        println!("oracles:           quiet (membership monotone, re-converged)");
    } else {
        for v in &r.violations {
            println!("VIOLATION {v}");
        }
    }
}

/// `figures -- recover [preset]` / `figures -- recover sweep [preset]`:
/// runs the recovery harness (reference multi-fault schedule + pool
/// checkpoints + the full oracle battery) twice over a fig16 preset,
/// asserts the `coarse.recovery-report/v1` document is byte-identical
/// across the two runs, prints the goodput accounting, and writes
/// `recover-<preset>.json` (or `recover-sweep-<preset>.json`). Exits 1 on
/// any oracle violation, 2 on an unknown preset.
fn recover(args: &[String]) {
    use coarse_core::resilience::RecoveryPolicy;
    use coarse_trainsim::{interval_sweep, recovery_report, TrainError};
    let unknown = |name: &str| -> ! {
        eprintln!(
            "unknown recover preset '{name}'; presets: {}\n",
            coarse_trainsim::Scenario::presets().join(" ")
        );
        usage();
        std::process::exit(2);
    };
    let fail = |e: TrainError| -> ! {
        eprintln!("error: {e}");
        std::process::exit(1);
    };
    if args.first().map(String::as_str) == Some("sweep") {
        let name = args.get(1).map(String::as_str).unwrap_or("fig16d");
        let policy = RecoveryPolicy::default();
        hr(&format!(
            "RECOVER SWEEP — {name} ({RECOVER_ITERATIONS} iterations, intervals {RECOVER_SWEEP_INTERVALS:?})"
        ));
        let sweep = match interval_sweep(name, RECOVER_ITERATIONS, RECOVER_SWEEP_INTERVALS, &policy)
        {
            Ok(sweep) => sweep,
            Err(TrainError::UnknownPreset { .. }) => unknown(name),
            Err(e) => fail(e),
        };
        let again = interval_sweep(name, RECOVER_ITERATIONS, RECOVER_SWEEP_INTERVALS, &policy)
            .expect("second sweep of a known preset");
        if sweep.render() != again.render() {
            eprintln!("error: recovery sweeps differ between two runs of '{name}'");
            std::process::exit(1);
        }
        println!(
            "{:>9} {:>10} {:>9} {:>6} {:>9} {:>16}",
            "interval", "overhead", "goodput", "lost", "restores", "MTTR"
        );
        for r in &sweep.reports {
            println!(
                "{:>9} {:>9.2}% {:>8.1}% {:>6} {:>9} {:>16}",
                r.policy.checkpoint_interval,
                r.checkpoint_overhead() * 100.0,
                r.goodput() * 100.0,
                r.faulty.lost_iterations,
                r.faulty.restores,
                r.faulty.mttr.to_string()
            );
        }
        let mut doc = sweep.render();
        doc.push('\n');
        let path = format!("recover-sweep-{name}.json");
        write_artifact(&path, &doc);
        println!("\nwrote {path} (determinism check: two runs matched)");
        if sweep.reports.iter().any(|r| !r.violations.is_empty()) {
            for r in &sweep.reports {
                for v in &r.violations {
                    eprintln!("VIOLATION (interval {}) {v}", r.policy.checkpoint_interval);
                }
            }
            std::process::exit(1);
        }
        return;
    }
    let name = args.first().map(String::as_str).unwrap_or("fig16d");
    let policy = RecoveryPolicy {
        checkpoint_interval: RECOVER_INTERVAL,
        ..RecoveryPolicy::default()
    };
    hr(&format!(
        "RECOVER — {name} ({RECOVER_ITERATIONS} iterations, checkpoint every {RECOVER_INTERVAL})"
    ));
    let report = match recovery_report(name, RECOVER_ITERATIONS, &policy) {
        Ok(report) => report,
        Err(TrainError::UnknownPreset { .. }) => unknown(name),
        Err(e) => fail(e),
    };
    let again = recovery_report(name, RECOVER_ITERATIONS, &policy)
        .expect("second recovery run of a known preset");
    if report.render() != again.render() {
        eprintln!("error: recovery reports differ between two runs of '{name}'");
        std::process::exit(1);
    }
    recover_summary(&report);
    let mut doc = report.render();
    doc.push('\n');
    let path = format!("recover-{name}.json");
    write_artifact(&path, &doc);
    println!("\nwrote {path} (determinism check: two runs matched)");
    if !report.violations.is_empty() {
        std::process::exit(1);
    }
}

/// Writes a CLI artifact, exiting 1 with a message instead of panicking
/// when the filesystem refuses (read-only checkout, missing directory).
fn write_artifact(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// `figures -- lint [--json [path]] [--baseline <file>]`: runs the simlint
/// static analyzer over the workspace sources, prints every active
/// (un-waived) diagnostic, and optionally writes the
/// `coarse.lint-report/v1` JSON artifact. Without `--baseline`, exits 1
/// when any un-waived diagnostic remains. With `--baseline`, compares
/// against a committed earlier report and exits 1 only on findings NOT in
/// the baseline — so a branch can ratchet down legacy debt without being
/// blocked by it — while stale (since-fixed) baseline entries are listed
/// for pruning. Exits 2 on usage errors.
fn lint(args: &[String]) {
    let mut json_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => match args.get(i + 1) {
                Some(p) if !p.starts_with("--") => {
                    json_path = Some(p.clone());
                    i += 1;
                }
                _ => json_path = Some("lint-report.json".to_string()),
            },
            "--baseline" => match args.get(i + 1) {
                Some(p) if !p.starts_with("--") => {
                    baseline_path = Some(p.clone());
                    i += 1;
                }
                _ => {
                    eprintln!("--baseline requires a report file path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown lint option '{other}'");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    // figures is built inside crates/bench; the workspace root is two up.
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = manifest
        .ancestors()
        .nth(2)
        .unwrap_or_else(|| std::path::Path::new("."));
    let report = match coarse_simlint::lint_workspace(root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", report.render_text(false));
    if let Some(path) = &json_path {
        write_artifact(path, &report.render_json());
        println!("wrote {path}");
    }
    let Some(bp) = &baseline_path else {
        if report.active() > 0 {
            std::process::exit(1);
        }
        return;
    };
    let text = match std::fs::read_to_string(bp) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read baseline {bp}: {e}");
            std::process::exit(2);
        }
    };
    let base = match coarse_simlint::baseline::Baseline::parse(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: bad baseline {bp}: {e}");
            std::process::exit(2);
        }
    };
    let fresh = base.new_findings(&report);
    let stale = base.stale(&report);
    for (rule, path, message) in &stale {
        println!("stale baseline entry (fixed — prune it): [{rule}] {path}: {message}");
    }
    if fresh.is_empty() {
        println!(
            "baseline check: no new findings ({} active, all in {bp})",
            report.active()
        );
        return;
    }
    println!(
        "baseline check: {} NEW finding(s) not in {bp}:",
        fresh.len()
    );
    for d in fresh {
        println!("  {}:{}: [{}] {}", d.path, d.line, d.rule, d.message);
    }
    std::process::exit(1);
}

/// Seed for the chaos soak: fixed so CI runs are reproducible; override
/// per-case exploration by passing a different case count (the per-case
/// seeds are derived from `base_seed ^ case`).
const CHAOS_SEED: u64 = 0xC0A5_5EED;

/// `figures -- chaos soak [cases]`: runs the seeded chaos search across the
/// Fig. 16 presets with the oracle battery armed, twice, asserting the two
/// sweeps render byte-identical summaries. Every oracle failure is shrunk
/// to a minimal plan and written as a replayable `chaos-repro-<hash>.json`.
/// Exits 1 if any case violated an invariant.
fn chaos_soak(cases: u32) {
    use coarse_trainsim::chaos::{soak, SoakConfig};
    let cfg = SoakConfig {
        cases,
        base_seed: CHAOS_SEED,
        ..SoakConfig::default()
    };
    hr(&format!(
        "CHAOS SOAK — {cases} cases over {} presets (seed {CHAOS_SEED:#x})",
        cfg.presets.len()
    ));
    let first = match soak(&cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: soak failed to run: {e}");
            std::process::exit(1);
        }
    };
    let again = soak(&cfg).expect("second sweep of an identical config");
    assert_eq!(
        first.render_summary(),
        again.render_summary(),
        "same-seed chaos soaks must be byte-identical"
    );
    print!("{}", first.render_summary());
    println!("determinism check: two same-seed sweeps matched");
    for f in &first.failures {
        let name = f.repro.file_name();
        write_artifact(&name, &f.repro.render());
        println!("wrote {name}");
    }
    if !first.failures.is_empty() {
        std::process::exit(1);
    }
}

/// `figures -- chaos run <preset> [seed]`: samples one fault schedule over
/// the preset and runs it with oracles armed. Exits 1 on any violation.
fn chaos_run(preset: &str, seed: u64) {
    use coarse_simcore::faults::FaultPlanGen;
    use coarse_trainsim::chaos::{run_case, universe_for};
    let base = match coarse_trainsim::Scenario::try_preset(preset) {
        Ok(s) => s.iterations(2),
        Err(e) => {
            eprintln!(
                "error: {e}; known presets: {}",
                coarse_trainsim::Scenario::presets().join(" ")
            );
            std::process::exit(2);
        }
    };
    let plan = FaultPlanGen::new(universe_for(&base)).sample(seed);
    hr(&format!(
        "CHAOS CASE — {preset}, seed {seed:#x}, {} fault event(s)",
        plan.len()
    ));
    for ev in plan.events() {
        println!("  t={} {}", ev.at, ev.label);
    }
    let scenario = base.faults(plan);
    let report = match run_case(&scenario, coarse_trainsim::Sabotage::None) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: case failed to run: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "retries {} | failovers {} | degraded-to-gpu {}",
        report.faulty.retries, report.faulty.failovers, report.faulty.degraded_to_gpu
    );
    if report.violations.is_empty() {
        println!("oracles: quiet (all invariants held)");
    } else {
        for v in &report.violations {
            println!("VIOLATION {v}");
        }
        std::process::exit(1);
    }
}

/// `figures -- chaos replay <path>`: re-runs a serialized repro and checks
/// the fresh verdicts against the recorded ones. Exits 1 if the failure no
/// longer reproduces (or reproduces differently).
fn chaos_replay(path: &str) {
    use coarse_trainsim::chaos::{replay, ChaosRepro};
    let doc = match std::fs::read_to_string(path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let repro = match ChaosRepro::parse(&doc) {
        Ok(repro) => repro,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    hr(&format!(
        "CHAOS REPLAY — {} ({} fault event(s), sabotage {:?})",
        path,
        repro.plan.len(),
        repro.sabotage
    ));
    let report = match replay(&doc) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: replay failed to run: {e}");
            std::process::exit(1);
        }
    };
    let fresh = report.rendered_violations();
    for v in &fresh {
        println!("VIOLATION {v}");
    }
    if fresh == repro.violations {
        println!("replay reproduces the recorded failure exactly");
    } else {
        eprintln!(
            "replay diverged from the recorded violations:\n  recorded: {:?}\n  fresh:    {:?}",
            repro.violations, fresh
        );
        std::process::exit(1);
    }
}

/// `figures -- chaos selftest`: end-to-end proof the chaos pipeline can
/// catch a protocol bug — arms the test-only `InvertRetryOrder` sabotage,
/// expects the retry-FIFO oracle to fire, the shrinker to reduce the plan
/// to ≤ 3 events, and the serialized repro to replay to the same failure.
fn chaos_selftest() {
    use coarse_trainsim::chaos::{replay, soak, SoakConfig};
    hr("CHAOS SELFTEST — sabotaged retry order must be caught and shrunk");
    let cfg = SoakConfig {
        presets: vec!["fig16a".to_string()],
        cases: 1,
        base_seed: CHAOS_SEED,
        sabotage: coarse_trainsim::Sabotage::InvertRetryOrder,
        ..SoakConfig::default()
    };
    let outcome = soak(&cfg).expect("selftest soak runs");
    let Some(failure) = outcome.failures.first() else {
        eprintln!("FAIL: sabotaged run produced no oracle violation");
        std::process::exit(1);
    };
    if !failure.violations.iter().any(|v| v.contains("retry-fifo")) {
        eprintln!(
            "FAIL: expected a retry-fifo verdict, got {:?}",
            failure.violations
        );
        std::process::exit(1);
    }
    println!(
        "caught: {} violation(s), plan shrunk {} -> {} event(s) over {} shrink runs",
        failure.violations.len(),
        failure.original_events,
        failure.shrunk_events,
        failure.shrink_tested
    );
    if failure.shrunk_events > 3 {
        eprintln!(
            "FAIL: shrinker left {} events (expected <= 3)",
            failure.shrunk_events
        );
        std::process::exit(1);
    }
    let replayed = replay(&failure.repro.render()).expect("repro replays");
    if replayed.rendered_violations() != failure.violations {
        eprintln!(
            "FAIL: replay diverged:\n  recorded: {:?}\n  fresh:    {:?}",
            failure.violations,
            replayed.rendered_violations()
        );
        std::process::exit(1);
    }
    let name = failure.repro.file_name();
    write_artifact(&name, &failure.repro.render());
    println!("wrote {name}");
    println!("replay reproduces the shrunk failure byte-for-byte: PASS");
}

/// Dispatches `figures -- chaos <mode>`.
fn chaos(args: &[String]) {
    let mode = args.first().map(String::as_str).unwrap_or("soak");
    let parse_u64 = |s: &str, what: &str| -> u64 {
        let digits = s.strip_prefix("0x");
        let parsed = match digits {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => s.parse(),
        };
        parsed.unwrap_or_else(|_| {
            eprintln!("error: {what} '{s}' is not a number");
            std::process::exit(2);
        })
    };
    match mode {
        "soak" => {
            let cases = args
                .get(1)
                .map(|s| parse_u64(s, "case count") as u32)
                .unwrap_or(500);
            chaos_soak(cases);
        }
        "run" => {
            let Some(preset) = args.get(1) else {
                eprintln!("usage: figures -- chaos run <preset> [seed]");
                std::process::exit(2);
            };
            let seed = args
                .get(2)
                .map(|s| parse_u64(s, "seed"))
                .unwrap_or(CHAOS_SEED);
            chaos_run(preset, seed);
        }
        "replay" => {
            let Some(path) = args.get(1) else {
                eprintln!("usage: figures -- chaos replay <chaos-repro-*.json>");
                std::process::exit(2);
            };
            chaos_replay(path);
        }
        "selftest" => chaos_selftest(),
        other => {
            eprintln!("unknown chaos mode '{other}'; expected: soak | run | replay | selftest");
            std::process::exit(2);
        }
    }
}

fn main() {
    // The library never reads the environment itself; the CLI boundary is
    // the one place ambient state becomes an explicit input.
    coarse_trainsim::coarse::set_pilot_debug(std::env::var("COARSE_DEBUG").is_ok());
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(what) = args.first().map(String::as_str) else {
        usage();
        std::process::exit(2);
    };
    match what {
        "help" | "--help" | "-h" => {
            usage();
            return;
        }
        "list" => {
            list();
            return;
        }
        "trace" => {
            let scenario = args.get(1).map(String::as_str).unwrap_or("resnet50-coarse");
            trace_scenario(scenario);
            return;
        }
        "faults" => {
            let scenario = args.get(1).map(String::as_str).unwrap_or("matrix");
            faults(scenario);
            return;
        }
        "chaos" => {
            chaos(&args[1..]);
            return;
        }
        "recover" => {
            recover(&args[1..]);
            return;
        }
        "validate" => {
            let scenario = args.get(1).map(String::as_str).unwrap_or("all");
            validate(scenario);
            return;
        }
        "report" => {
            let mut scenario = None;
            let mut json_path = None;
            let mut rest = args[1..].iter();
            while let Some(arg) = rest.next() {
                if arg == "--json" {
                    match rest.next() {
                        Some(p) => json_path = Some(p.as_str()),
                        None => {
                            eprintln!("--json requires a path");
                            std::process::exit(2);
                        }
                    }
                } else {
                    scenario = Some(arg.as_str());
                }
            }
            report(scenario, json_path);
            return;
        }
        "bench" => {
            let mut label = None;
            let mut baseline = None;
            let mut rest = args[1..].iter();
            while let Some(arg) = rest.next() {
                if arg == "--baseline" {
                    match rest.next() {
                        Some(p) => baseline = Some(p.as_str()),
                        None => {
                            eprintln!("--baseline requires a path");
                            std::process::exit(2);
                        }
                    }
                } else if arg.starts_with("--") {
                    eprintln!("unknown bench option '{arg}'\n");
                    usage();
                    std::process::exit(2);
                } else {
                    label = Some(arg.as_str());
                }
            }
            bench(label.unwrap_or("local"), baseline);
            return;
        }
        "profile" => {
            let scenario = args.get(1).map(String::as_str).unwrap_or("fig16d");
            profile(scenario);
            return;
        }
        "explain" => {
            let scenario = args.get(1).map(String::as_str).unwrap_or("fig16d");
            explain(scenario);
            return;
        }
        "lint" => {
            lint(&args[1..]);
            return;
        }
        _ => {}
    }
    let mut ran = false;
    for (name, f) in FIGURES {
        if what == "all" || what == *name {
            f();
            ran = true;
        }
    }
    if !ran {
        eprintln!("unknown subcommand '{what}'\n");
        usage();
        std::process::exit(2);
    }
}
