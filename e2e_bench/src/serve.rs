//! The `serve` workload: `nm-serve` on one projection, driven by one
//! generator thread that keeps a fixed window of decode requests
//! outstanding.
//!
//! The window is four times the decode batch bound, so the server always
//! has a full decode batch waiting. Completions per second give
//! `tokens_per_s`. A request's latency is its time in the server: the
//! submit call, then the queue wait and compute the server reports. The
//! time a finished result waits for the generator to reach it is left
//! out. With the window closed, the median latency is about the window
//! over the throughput (Little's law).
//!
//! Every served result is compared bit for bit with `forward_vec` called
//! directly on the same prepared layer, which the server documents as
//! guaranteed; those direct results are themselves checked against the
//! f64 oracle.

use crate::model::{self, LayerBlob, Op, Role};
use crate::oracle::SplitMix;
use crate::report::{Report, TraceSummary};
use crate::setup;
use crate::stats;
use crate::trace::Tracer;
use nm_core::error::Result;
use nm_core::matrix::MatrixF32;
use nm_core::serialize;
use nm_kernels::DECODE_MAX_ROWS;
use nm_serve::{Completion, Server, ServerConfig, SubmitOptions, Ticket};
use nm_workloads::llama::{LlamaModel, LLAMA_FAMILY};
use std::collections::VecDeque;
use std::time::Instant;

/// The served layer is Llama-7B's up projection (`nm_workloads::llama`)
/// with every GEMM dimension divided by this: 2048 × 5504, large enough
/// that one decode request costs about a millisecond of compute, so
/// compute, not thread wake-ups, sets the latency.
pub const SERVE_SCALE: usize = 2;

const LLAMA_7B: LlamaModel = LLAMA_FAMILY[0];

/// `(k, n)` of the served layer.
pub const SERVE_SHAPE: (usize, usize) = (
    LLAMA_7B.hidden / SERVE_SCALE,
    LLAMA_7B.intermediate / SERVE_SCALE,
);

/// Kernel workers of the served layer: one, so that the batcher and the
/// generator share the other core instead of preempting a kernel worker.
pub const SERVE_WORKERS: usize = 1;

/// Requests outstanding at all times.
pub const WINDOW: usize = 4 * DECODE_MAX_ROWS;

/// Distinct decode inputs, each served many times.
pub const DECODE_INPUTS: usize = 64;

/// Completions per throughput sample.
const SLICE: usize = 8 * WINDOW;

/// Output cells of each direct result checked against the oracle.
const CELLS_PER_REFERENCE: usize = 64;

const SPAN_REQUEST: &str = "serve.request";
const SPAN_SUBMIT: &str = "serve.submit";
const SPAN_QUEUE: &str = "serve.queue_wait";
const SPAN_COMPUTE: &str = "serve.compute";
const SPAN_START: &str = "serve.start";

/// A server configuration the window cannot overflow.
fn server_config() -> ServerConfig {
    ServerConfig {
        queue_capacity: 1024,
        ..ServerConfig::default()
    }
}

/// One input with the result `forward_vec` gives for it when called
/// directly.
struct Input {
    x: MatrixF32,
    expected: MatrixF32,
}

fn same_bits(a: &MatrixF32, b: &MatrixF32) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether a served outcome is a correct completion for `input`.
fn served_ok(outcome: &Result<Completion>, input: &Input) -> bool {
    matches!(outcome, Ok(done) if same_bits(&done.c, &input.expected))
}

/// The `serve` workload.
pub fn serve(seed: u64, seconds: f64, tracer: &mut Tracer, report: &mut Report) -> Result<()> {
    let mut rng = SplitMix::new(seed);
    let cfg = Role::MlpUp.config();
    let (k, n) = SERVE_SHAPE;
    let blob = LayerBlob::generate(Role::MlpUp, cfg, k, n, rng.next_u64());
    println!(
        "# serve layer: {} x {} at {cfg}, {:.1} MiB compressed; window {WINDOW}",
        blob.k,
        blob.n,
        blob.compressed_bytes() / (1 << 20) as f64
    );

    let mut group = 0u64;
    let s = setup::repeat(tracer, &mut group, |t, g| {
        let root = t.open(model::SPAN_SETUP, g, Instant::now());
        let sb = model::timed(t, model::SPAN_FROM_BYTES, g, Some(root), || {
            serialize::from_bytes(&blob.blob)
        })?;
        let mut session = model::session(Some(SERVE_WORKERS))?;
        model::timed(t, model::SPAN_PLAN, g, Some(root), || {
            session.plan(DECODE_MAX_ROWS, blob.n, blob.k, blob.cfg)
        })?;
        let layer = model::timed(t, Role::MlpUp.span(Op::Load), g, Some(root), || {
            session.load(sb, DECODE_MAX_ROWS)
        })?;
        let server = model::timed(t, SPAN_START, g, Some(root), || {
            Server::start(layer, server_config())
        })?;
        t.close(root, Instant::now());
        Ok((session.stats(), server))
    })?;
    report.end_to_end("setup_s", s.setup_s);
    report.end_to_end("resident_mb", s.resident_mb);
    let (cache, server) = s.kept;
    report.per_layer("kernels.plan.cache_hits", cache.hits as f64);
    report.per_layer("kernels.plan.cache_misses", cache.misses as f64);

    // Direct results for every input, each checked against the oracle.
    let layer = server.layer();
    let mut decodes = Vec::with_capacity(DECODE_INPUTS);
    for _ in 0..DECODE_INPUTS {
        let x = MatrixF32::random(1, blob.k, rng.next_u64());
        let expected = layer.forward_vec(x.as_slice())?.c;
        report.attempted += 1;
        if blob.oracle.mismatches(
            x.as_slice(),
            expected.as_slice(),
            CELLS_PER_REFERENCE,
            &mut rng,
        ) > 0
        {
            report.failed += 1;
        }
        decodes.push(Input { x, expected });
    }

    let mut window = Window::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || window.rates.len() < 10 {
        for _ in 0..WINDOW {
            if window.outstanding.len() == WINDOW {
                window.settle(report, tracer, &mut group);
            }
            let input = &decodes[rng.below(decodes.len())];
            let payload = input.x.clone().into_vec();
            let submitted = Instant::now();
            let ticket = server.submit_decode(payload, SubmitOptions::default());
            window.outstanding.push_back(Pending {
                ticket,
                input,
                submitted,
                submit_end: Instant::now(),
            });
        }
    }
    while !window.outstanding.is_empty() {
        window.settle(report, tracer, &mut group);
    }
    window.finish(report, server.stats().batches);
    let stats = server.stats();
    if stats.shed > 0 || stats.rejected > 0 {
        eprintln!(
            "server shed {} and rejected {} requests",
            stats.shed, stats.rejected
        );
    }
    if tracer.enabled() {
        let t = TraceSummary::new(tracer.spans());
        report.per_layer(
            "core.serialize.from_bytes_ms",
            t.median_group_total_ms(model::SPAN_SETUP, model::SPAN_FROM_BYTES),
        );
        report.per_layer(
            "kernels.plan.plan_ms",
            t.median_group_total_ms(model::SPAN_SETUP, model::SPAN_PLAN),
        );
        report.per_layer(
            &format!("{}_ms", Role::MlpUp.span(Op::Load)),
            t.median_group_total_ms(model::SPAN_SETUP, Role::MlpUp.span(Op::Load)),
        );
    }
    Ok(())
}

/// One submitted request.
struct Pending<'a> {
    ticket: Result<Ticket>,
    input: &'a Input,
    submitted: Instant,
    submit_end: Instant,
}

/// The outstanding window and the running totals.
struct Window<'a> {
    outstanding: VecDeque<Pending<'a>>,
    latency_ms: Vec<f64>,
    compute_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    submit_us: Vec<f64>,
    batch_sizes: Vec<f64>,
    rates: Vec<f64>,
    in_slice: usize,
    slice_start: Instant,
}

impl<'a> Window<'a> {
    fn new() -> Self {
        Self {
            outstanding: VecDeque::with_capacity(WINDOW),
            latency_ms: Vec::new(),
            compute_ms: Vec::new(),
            queue_ms: Vec::new(),
            submit_us: Vec::new(),
            batch_sizes: Vec::new(),
            rates: Vec::new(),
            in_slice: 0,
            slice_start: Instant::now(),
        }
    }

    /// Wait for the oldest request, check it, and account for it.
    fn settle(&mut self, report: &mut Report, tracer: &mut Tracer, next_group: &mut u64) {
        let p = self
            .outstanding
            .pop_front()
            .expect("a request is outstanding");
        let outcome = p.ticket.and_then(Ticket::wait);
        let received = Instant::now();
        report.attempted += 1;
        let ok = served_ok(&outcome, p.input);
        if !ok {
            report.failed += 1;
        }
        *next_group += 1;
        let g = *next_group;
        let root = tracer.open(SPAN_REQUEST, g, p.submitted);
        tracer.record(SPAN_SUBMIT, g, Some(root), p.submitted, p.submit_end);
        if let Ok(c) = &outcome {
            let dispatched = p.submit_end + c.timing.queue_wait;
            tracer.record(SPAN_QUEUE, g, Some(root), p.submit_end, dispatched);
            tracer.record(
                SPAN_COMPUTE,
                g,
                Some(root),
                dispatched,
                dispatched + c.timing.compute,
            );
        }
        tracer.close(root, received);
        if let (true, Ok(c)) = (ok, &outcome) {
            let in_server = (p.submit_end - p.submitted) + c.timing.e2e();
            self.latency_ms.push(in_server.as_secs_f64() * 1e3);
            self.compute_ms.push(c.timing.compute.as_secs_f64() * 1e3);
            self.queue_ms.push(c.timing.queue_wait.as_secs_f64() * 1e3);
            self.submit_us
                .push((p.submit_end - p.submitted).as_secs_f64() * 1e6);
            self.batch_sizes.push(c.dispatch.batch_size as f64);
        }
        self.in_slice += 1;
        if self.in_slice == SLICE {
            let now = Instant::now();
            self.rates
                .push(SLICE as f64 / (now - self.slice_start).as_secs_f64());
            (self.in_slice, self.slice_start) = (0, now);
        }
    }

    fn finish(&self, report: &mut Report, batches: u64) {
        report.end_to_end("tokens_per_s", stats::median(&self.rates));
        report.end_to_end("latency_p50_ms", stats::median(&self.latency_ms));
        report.end_to_end(
            "latency_p90_ms",
            stats::tail(&self.latency_ms, 0.9).expect("the window runs until p90 has its samples"),
        );
        report.per_layer("serve.compute_ms", stats::median(&self.compute_ms));
        report.per_layer(
            "serve.batch_size",
            self.batch_sizes.iter().sum::<f64>() / self.batch_sizes.len() as f64,
        );
        report.per_layer("serve.batches", batches as f64);
        report.per_layer("serve.queue_wait_ms", stats::median(&self.queue_ms));
        report.per_layer("serve.submit_us", stats::median(&self.submit_us));
        println!(
            "# served {} decode requests in {batches} batches, {} throughput samples",
            self.latency_ms.len(),
            self.rates.len()
        );
    }
}
