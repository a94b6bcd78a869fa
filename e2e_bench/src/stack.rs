//! The `prefill` and `decode` workloads: the Llama-shaped stack driven
//! by one caller thread, every output checked after its timer stops.

use crate::model::{self, Call, LayerBlob, Op, Role, StackSpec, Under};
use crate::oracle::SplitMix;
use crate::report::{Report, TraceSummary};
use crate::setup;
use crate::stats;
use crate::trace::{Reconciliation, Tracer};
use nm_core::error::Result;
use nm_core::matrix::MatrixF32;
use nm_workloads::llama::{LlamaModel, LLAMA_FAMILY, SEQUENCE_LENGTHS};
use std::time::{Duration, Instant};

/// The stack's sizes are the paper's Llama-7B data points (§IV-A,
/// `nm_workloads::llama`) with every GEMM dimension divided by this:
/// widths and prompt lengths alike, so a prompt keeps its place against
/// the weight shapes. At a quarter the two-block stack's compressed
/// weights are about nine times the per-core L2 and a third of the L3,
/// and one prefill round takes a couple of seconds.
pub const SCALE: usize = 4;

const LLAMA_7B: LlamaModel = LLAMA_FAMILY[0];

/// The stack both prefill and decode run: two Llama-7B blocks at
/// [`SCALE`] (hidden 1024, MLP 2752).
pub const STACK: StackSpec = StackSpec {
    hidden: LLAMA_7B.hidden / SCALE,
    mlp: LLAMA_7B.intermediate / SCALE,
    blocks: 2,
};

/// Prompt lengths of one prefill round, run in a seeded order: the
/// paper's five sequence lengths at [`SCALE`] (64 to 1024), each also
/// one token short, so every tile edge sees a partial last tile.
pub fn prompt_lengths() -> Vec<usize> {
    SEQUENCE_LENGTHS
        .iter()
        .flat_map(|&m| [m / SCALE, m / SCALE - 1])
        .collect()
}

/// The row count prefill layers are planned for: the paper's middle
/// sequence length at [`SCALE`], which is also the median of the mix.
pub const PREFILL_PLAN_ROWS: usize = SEQUENCE_LENGTHS[2] / SCALE;

/// Tokens of one decode round.
pub const TOKENS_PER_ROUND: usize = 16;

/// Output cells checked per layer call.
pub const CELLS_PER_CALL: usize = 4;

/// Share of the stack wall the layer and glue spans may leave unaccounted.
pub const RECONCILE_TOLERANCE: f64 = 0.02;

const SPAN_PROMPT: &str = "bench.prompt";
const SPAN_TOKEN: &str = "bench.token";

/// The measured phase ends once both hold: `seconds` have passed and at
/// least this many units (prompts or tokens) were timed, so the p90 has
/// ten samples beyond it.
fn min_units() -> usize {
    stats::min_samples_for_tail(0.9)
}

/// Per-unit accounting shared by both workloads.
struct Measured {
    /// Wall of every prompt or token, seconds.
    unit_walls: Vec<f64>,
    /// Tokens per second of every round.
    round_rates: Vec<f64>,
    /// Useful FLOPs and computed bytes summed per role.
    flops: [f64; 7],
    bytes: [f64; 7],
}

impl Measured {
    fn new() -> Self {
        Self {
            unit_walls: Vec::new(),
            round_rates: Vec::new(),
            flops: [0.0; 7],
            bytes: [0.0; 7],
        }
    }
}

/// Check the calls of one unit and count it; a unit fails when any of
/// its layer calls errs or mismatches.
fn settle(
    report: &mut Report,
    blobs: &[LayerBlob],
    calls: &mut Vec<Call>,
    outcome: Result<MatrixF32>,
    rng: &mut SplitMix,
    measured: &mut Measured,
) -> Option<MatrixF32> {
    report.attempted += 1;
    for c in calls.iter() {
        let b = &blobs[c.layer];
        measured.flops[b.role as usize] += b.flops(c.input.rows());
        measured.bytes[b.role as usize] += b.vec_bytes();
    }
    let bad = model::check_calls(blobs, calls, CELLS_PER_CALL, rng);
    calls.clear();
    match outcome {
        Ok(y) if bad == 0 => Some(y),
        _ => {
            report.failed += 1;
            None
        }
    }
}

/// Set up the stack [`setup::SETUP_REPS`] times and fill the set-up metrics.
fn set_up_stack(
    report: &mut Report,
    tracer: &mut Tracer,
    next_group: &mut u64,
    blobs: &[LayerBlob],
    rows: usize,
) -> Result<Vec<nm_kernels::session::PreparedLayer>> {
    let s = setup::repeat(tracer, next_group, |t, g| model::set_up(blobs, rows, t, g))?;
    let (session, layers) = s.kept;
    report.end_to_end("setup_s", s.setup_s);
    report.end_to_end("resident_mb", s.resident_mb);
    let stats = session.stats();
    report.per_layer("kernels.plan.cache_hits", stats.hits as f64);
    report.per_layer("kernels.plan.cache_misses", stats.misses as f64);
    Ok(layers)
}

/// The `prefill` workload.
pub fn prefill(seed: u64, seconds: f64, tracer: &mut Tracer, report: &mut Report) -> Result<()> {
    let spec = STACK;
    let blobs = spec.generate(seed);
    let lengths = prompt_lengths();
    println!(
        "# prefill stack: {} blocks, hidden {}, mlp {}, {:.1} MiB compressed; prompts {lengths:?}",
        spec.blocks,
        spec.hidden,
        spec.mlp,
        model::stack_bytes(&blobs) / (1 << 20) as f64,
    );
    let mut group = 0u64;
    let layers = set_up_stack(report, tracer, &mut group, &blobs, PREFILL_PLAN_ROWS)?;

    let mut rng = SplitMix::new(seed ^ 0x7072_6566);
    let prompts: Vec<MatrixF32> = lengths
        .iter()
        .map(|&m| MatrixF32::random(m, spec.hidden, rng.next_u64()))
        .collect();
    let mut measured = Measured::new();
    let mut calls = Vec::new();
    let mut round = |report: &mut Report, tracer: &mut Tracer, measured: &mut Measured| {
        let mut order: Vec<usize> = (0..prompts.len()).collect();
        rng.shuffle(&mut order);
        let (mut wall, mut tokens) = (0.0, 0usize);
        for p in order {
            group += 1;
            let input = prompts[p].clone();
            let start = Instant::now();
            let root = tracer.open(SPAN_PROMPT, group, start);
            let out = model::run_stack(
                &layers,
                &blobs,
                Op::Forward,
                input,
                tracer,
                Under { group, root },
                &mut calls,
            );
            let end = Instant::now();
            tracer.close(root, end);
            let w = (end - start).as_secs_f64();
            measured.unit_walls.push(w);
            wall += w;
            tokens += prompts[p].rows();
            settle(report, &blobs, &mut calls, out, &mut rng, measured);
        }
        measured.round_rates.push(tokens as f64 / wall);
    };

    measure(report, tracer, seconds, &mut round, &mut measured);
    finish(report, tracer, &measured, SPAN_PROMPT, Op::Forward)
}

/// How long the GEMM probe of a traced decode run measures; the prefill
/// loop runs on until the p90 has its samples, about ten rounds.
pub const PROBE_SECONDS: f64 = 1.0;

/// Time the prefill GEMM path for a traced `decode` run. `prefill` is
/// not one of the benchmark's workloads (its end-to-end figures are not
/// steady on a shared two-core host, see the README), so the traced
/// decode run also makes a short prefill run under its own tracer and
/// takes from it the `kernels.forward.*` metrics and its operation counts.
/// Returns the probe's tracer, whose spans the caller writes.
pub fn gemm_probe(seed: u64, report: &mut Report) -> Result<Tracer> {
    let mut tracer = Tracer::new(true);
    let mut probe = Report::new();
    prefill(seed, PROBE_SECONDS, &mut tracer, &mut probe)?;
    for role in Role::ALL {
        for suffix in ["ms", "gflops"] {
            let name = format!("{}_{suffix}", role.span(Op::Forward));
            report.per_layer(&name, probe.per_layer_value(&name));
        }
    }
    report.attempted += probe.attempted;
    report.failed += probe.failed;
    report.correct &= probe.correct;
    Ok(tracer)
}

/// The `decode` workload: one sequence's token loop at one row.
pub fn decode(seed: u64, seconds: f64, tracer: &mut Tracer, report: &mut Report) -> Result<()> {
    let spec = STACK;
    let blobs = spec.generate(seed);
    println!(
        "# decode stack: {} blocks, hidden {}, mlp {}, {:.1} MiB compressed (per-core L2 4 MiB)",
        spec.blocks,
        spec.hidden,
        spec.mlp,
        model::stack_bytes(&blobs) / (1 << 20) as f64
    );
    let mut group = 0u64;
    let layers = set_up_stack(report, tracer, &mut group, &blobs, 1)?;

    let mut rng = SplitMix::new(seed ^ 0x6465_636f);
    let mut x = MatrixF32::random(1, spec.hidden, rng.next_u64());
    let mut calls = Vec::new();
    let mut round = |report: &mut Report, tracer: &mut Tracer, measured: &mut Measured| {
        let mut wall = 0.0;
        for _ in 0..TOKENS_PER_ROUND {
            group += 1;
            let input = x.clone();
            let start = Instant::now();
            let root = tracer.open(SPAN_TOKEN, group, start);
            let out = model::run_stack(
                &layers,
                &blobs,
                Op::ForwardVec,
                input,
                tracer,
                Under { group, root },
                &mut calls,
            );
            let end = Instant::now();
            tracer.close(root, end);
            let w = (end - start).as_secs_f64();
            measured.unit_walls.push(w);
            wall += w;
            // The next token's input is this token's output; a failed
            // token restarts the sequence from a fresh seeded vector.
            x = match settle(report, &blobs, &mut calls, out, &mut rng, measured) {
                Some(y) => model::glue::rms_norm(&y),
                None => MatrixF32::random(1, spec.hidden, rng.next_u64()),
            };
        }
        measured.round_rates.push(TOKENS_PER_ROUND as f64 / wall);
    };

    let mut measured = Measured::new();
    measure(report, tracer, seconds, &mut round, &mut measured);
    finish(report, tracer, &measured, SPAN_TOKEN, Op::ForwardVec)
}

/// One untimed round to fault in buffers and warm caches, then whole
/// rounds until the measured phase is long enough. Work counts cover
/// every round, like the spans; walls and rates only the measured phase.
fn measure(
    report: &mut Report,
    tracer: &mut Tracer,
    seconds: f64,
    round: &mut impl FnMut(&mut Report, &mut Tracer, &mut Measured),
    measured: &mut Measured,
) {
    round(report, tracer, measured);
    measured.unit_walls.clear();
    measured.round_rates.clear();
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs_f64(seconds)
        || measured.unit_walls.len() < min_units()
    {
        round(report, tracer, measured);
    }
}

/// Fill the end-to-end metrics from the measured phase and, when traced,
/// the per-layer ones from the spans.
fn finish(
    report: &mut Report,
    tracer: &Tracer,
    measured: &Measured,
    root: &str,
    entry: Op,
) -> Result<()> {
    let ms: Vec<f64> = measured.unit_walls.iter().map(|w| w * 1e3).collect();
    report.end_to_end("tokens_per_s", stats::median(&measured.round_rates));
    report.end_to_end("latency_p50_ms", stats::median(&ms));
    report.end_to_end(
        "latency_p90_ms",
        stats::tail(&ms, 0.9).expect("the measured phase runs until p90 has its samples"),
    );
    let rates: Vec<String> = measured
        .round_rates
        .iter()
        .map(|r| format!("{r:.0}"))
        .collect();
    println!("# round rates (1/s), in run order: {}", rates.join(" "));
    println!(
        "# measured {} units in {} rounds; median unit {:.3} ms",
        ms.len(),
        measured.round_rates.len(),
        stats::median(&ms)
    );
    if !tracer.enabled() {
        return Ok(());
    }
    let t = TraceSummary::new(tracer.spans());
    report.per_layer(
        "core.serialize.from_bytes_ms",
        t.median_group_total_ms(model::SPAN_SETUP, model::SPAN_FROM_BYTES),
    );
    report.per_layer(
        "kernels.plan.plan_ms",
        t.median_group_total_ms(model::SPAN_SETUP, model::SPAN_PLAN),
    );
    for role in Role::ALL {
        let r = role as usize;
        report.per_layer(
            &format!("{}_ms", role.span(Op::Load)),
            t.median_group_total_ms(model::SPAN_SETUP, role.span(Op::Load)),
        );
        let span = role.span(entry);
        report.per_layer(&format!("{span}_ms"), t.median_ms(span));
        match entry {
            Op::ForwardVec => report.per_layer(
                &format!("{span}_gbps"),
                measured.bytes[r] / t.total_s(span) * 1e-9,
            ),
            _ => report.per_layer(
                &format!("{span}_gflops"),
                measured.flops[r] / t.total_s(span) * 1e-9,
            ),
        }
    }
    let units = t.count(root) as f64;
    report.per_layer("bench.glue_ms", t.total_s(model::SPAN_GLUE) * 1e3 / units);
    let rec = Reconciliation::of(tracer.spans(), t.self_ns(), root);
    report.per_layer("bench.unaccounted_pct", 100.0 * rec.gap_fraction());
    println!(
        "# reconciliation: layers + glue {:.3} s of {:.3} s {root} wall ({:+.3}% unaccounted, tolerance {}%)",
        rec.accounted_ns as f64 * 1e-9,
        rec.wall_ns as f64 * 1e-9,
        100.0 * rec.gap_fraction(),
        100.0 * RECONCILE_TOLERANCE
    );
    if !rec.within(RECONCILE_TOLERANCE) {
        report.correct = false;
        eprintln!("layer self times plus glue do not reconcile with the {root} wall");
    }
    Ok(())
}
