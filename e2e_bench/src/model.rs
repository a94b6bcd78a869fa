//! The Llama-shaped stack the prefill and decode workloads run: blocks
//! of seven N:M-sparse projections (q, k, v, o, gate, up, down) joined by
//! dense glue the benchmark computes itself (RMS norm, a token-local
//! attention stand-in, SiLU gating, residual adds).
//!
//! Weights are made from the seed, pruned and serialized once per run;
//! a set-up turns the blobs back into prepared layers through the public
//! API only: `serialize::from_bytes`, `SessionBuilder`, `Session::plan`,
//! `Session::load`.

use crate::oracle::{Oracle, SplitMix};
use crate::trace::{SpanId, Tracer};
use gpu_sim::device::a100_80g;
use nm_core::error::Result;
use nm_core::matrix::MatrixF32;
use nm_core::pattern::NmConfig;
use nm_core::serialize;
use nm_core::sparse::NmSparseMatrix;
use nm_kernels::measure::AutotuneMode;
use nm_kernels::session::{PreparedLayer, Session, SessionBuilder};
use nm_kernels::{BackendKind, NmVersion};
use nm_workloads::levels;
use std::sync::OnceLock;
use std::time::Instant;

/// One projection of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    AttnQ,
    AttnK,
    AttnV,
    AttnO,
    MlpGate,
    MlpUp,
    MlpDown,
}

impl Role {
    pub const ALL: [Role; 7] = [
        Role::AttnQ,
        Role::AttnK,
        Role::AttnV,
        Role::AttnO,
        Role::MlpGate,
        Role::MlpUp,
        Role::MlpDown,
    ];

    pub fn name(self) -> &'static str {
        [
            "attn_q", "attn_k", "attn_v", "attn_o", "mlp_gate", "mlp_up", "mlp_down",
        ][self as usize]
    }

    /// The role's N:M pattern: the paper's four benchmark sparsity
    /// levels (50%, 62.5%, 75%, 87.5% at `M = 16`, `L = 32`) in turn, so
    /// every level sits on an attention and an MLP projection and the
    /// kernels' 70% packing threshold is straddled: 50% and 62.5% take
    /// the direct path, 75% and 87.5% the packed one.
    pub fn config(self) -> NmConfig {
        levels::benchmark_levels()[self as usize % 4]
    }

    /// `(k, n)`: reduction depth and output width for hidden size `d`
    /// and MLP width `f`.
    pub fn shape(self, d: usize, f: usize) -> (usize, usize) {
        match self {
            Role::MlpGate | Role::MlpUp => (d, f),
            Role::MlpDown => (f, d),
            _ => (d, d),
        }
    }

    /// The span name of `op` on this role, `<op prefix>.<role>`, e.g.
    /// `kernels.forward.attn_q`.
    pub fn span(self, op: Op) -> &'static str {
        static NAMES: OnceLock<Vec<&'static str>> = OnceLock::new();
        let names = NAMES.get_or_init(|| {
            Op::ALL
                .iter()
                .flat_map(|op| Role::ALL.iter().map(move |role| (op, role)))
                .map(|(op, role)| {
                    &*Box::leak(format!("{}.{}", op.prefix(), role.name()).into_boxed_str())
                })
                .collect()
        });
        names[op as usize * Role::ALL.len() + self as usize]
    }
}

/// The public layer calls timed once per role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `Session::load` after the plan is cached: staging and packing.
    Load,
    /// `PreparedLayer::forward` on the whole activation matrix.
    Forward,
    /// `PreparedLayer::forward_vec` on a one-row activation.
    ForwardVec,
}

impl Op {
    pub const ALL: [Op; 3] = [Op::Load, Op::Forward, Op::ForwardVec];

    /// The span-name and metric-name prefix of the call.
    pub fn prefix(self) -> &'static str {
        [
            "kernels.session.load",
            "kernels.forward",
            "kernels.forward_vec",
        ][self as usize]
    }
}

pub const SPAN_SETUP: &str = "bench.setup";
pub const SPAN_FROM_BYTES: &str = "core.serialize.from_bytes";
pub const SPAN_PLAN: &str = "kernels.plan.plan";
pub const SPAN_GLUE: &str = "bench.glue";

/// One layer's serialized weights plus everything the checks need.
#[derive(Debug)]
pub struct LayerBlob {
    pub role: Role,
    pub cfg: NmConfig,
    pub k: usize,
    pub n: usize,
    /// Compressed rows `w = k·N/M`.
    pub w: usize,
    pub blob: Vec<u8>,
    pub oracle: Oracle,
}

impl LayerBlob {
    /// Make, prune and serialize one layer from `seed`. The values are
    /// scaled so a unit-RMS input gives unit-variance outputs.
    pub fn generate(role: Role, cfg: NmConfig, k: usize, n: usize, seed: u64) -> Self {
        let mut dense = MatrixF32::random(k, n, seed);
        let w = cfg.compressed_rows(k);
        let scale = (3.0 / w as f32).sqrt();
        dense.as_mut_slice().iter_mut().for_each(|v| *v *= scale);
        let sb = NmSparseMatrix::prune_magnitude(&dense, cfg).expect("prune a valid shape");
        let oracle = Oracle::new(&sb).unwrap_or_else(|e| panic!("pruned {role:?}: {e}"));
        Self {
            role,
            cfg,
            k,
            n,
            w,
            blob: serialize::to_bytes(&sb).to_vec(),
            oracle,
        }
    }

    /// Useful FLOPs of one product with `m` activation rows: `2·m·n·w`.
    pub fn flops(&self, m: usize) -> f64 {
        2.0 * (m * self.n * self.w) as f64
    }

    /// Bytes of the compressed operand: values plus bit-packed indices.
    pub fn compressed_bytes(&self) -> f64 {
        let values = self.w * self.n * 4;
        let indices =
            (self.w * self.cfg.window_cols(self.n) * self.cfg.index_bits() as usize).div_ceil(8);
        (values + indices) as f64
    }

    /// Computed bytes one `forward_vec` call moves: the compressed
    /// operand, the input vector and the output vector.
    pub fn vec_bytes(&self) -> f64 {
        self.compressed_bytes() + (4 * (self.k + self.n)) as f64
    }
}

/// The shape of a stack.
#[derive(Debug, Clone, Copy)]
pub struct StackSpec {
    pub hidden: usize,
    pub mlp: usize,
    pub blocks: usize,
}

impl StackSpec {
    /// Every layer of the stack, block by block, in [`Role::ALL`] order.
    pub fn generate(&self, seed: u64) -> Vec<LayerBlob> {
        let mut rng = SplitMix::new(seed);
        let mut layers = Vec::with_capacity(self.blocks * Role::ALL.len());
        for _ in 0..self.blocks {
            for role in Role::ALL {
                let (k, n) = role.shape(self.hidden, self.mlp);
                layers.push(LayerBlob::generate(
                    role,
                    role.config(),
                    k,
                    n,
                    rng.next_u64(),
                ));
            }
        }
        layers
    }
}

/// Compressed bytes of a whole stack.
pub fn stack_bytes(layers: &[LayerBlob]) -> f64 {
    layers.iter().map(LayerBlob::compressed_bytes).sum()
}

/// A session built with explicit settings: the V3 CPU ladder and
/// measured autotune off (it picks by timing, so the plan could differ
/// from run to run). `threads` caps the workers; `None` keeps the
/// session's default, one per core.
pub fn session(threads: Option<usize>) -> Result<Session> {
    let builder = SessionBuilder::new(a100_80g())
        .backend(BackendKind::Cpu(NmVersion::V3))
        .autotune(AutotuneMode::Off);
    match threads {
        Some(t) => builder.threads(t),
        None => builder,
    }
    .build()
}

/// Time `f` as a span named `name` under `parent`.
pub fn timed<T>(
    tracer: &mut Tracer,
    name: &'static str,
    group: u64,
    parent: Option<SpanId>,
    f: impl FnOnce() -> T,
) -> T {
    let start = Instant::now();
    let out = f();
    tracer.record(name, group, parent, start, Instant::now());
    out
}

/// One complete set-up: deserialize every blob, build a session, then
/// plan and load every layer for `rows`-row activations. The plan call
/// comes first so that `load`, hitting the cache, is left with staging
/// and packing alone.
pub fn set_up(
    blobs: &[LayerBlob],
    rows: usize,
    tracer: &mut Tracer,
    group: u64,
) -> Result<(Session, Vec<PreparedLayer>)> {
    let root = tracer.open(SPAN_SETUP, group, Instant::now());
    let mut weights = Vec::with_capacity(blobs.len());
    for b in blobs {
        weights.push(timed(tracer, SPAN_FROM_BYTES, group, Some(root), || {
            serialize::from_bytes(&b.blob)
        })?);
    }
    let mut session = session(None)?;
    let mut layers = Vec::with_capacity(blobs.len());
    for (b, sb) in blobs.iter().zip(weights) {
        timed(tracer, SPAN_PLAN, group, Some(root), || {
            session.plan(rows, b.n, b.k, b.cfg)
        })?;
        layers.push(timed(
            tracer,
            b.role.span(Op::Load),
            group,
            Some(root),
            || session.load(sb, rows),
        )?);
    }
    tracer.close(root, Instant::now());
    Ok((session, layers))
}

/// Dense glue, row by row over row-major matrices.
pub mod glue {
    use nm_core::matrix::MatrixF32;

    /// Scale every row to unit root-mean-square.
    pub fn rms_norm(x: &MatrixF32) -> MatrixF32 {
        let mut out = x.clone();
        let d = x.cols();
        for r in 0..x.rows() {
            let row = out.row_mut(r);
            let ms = row.iter().map(|v| v * v).sum::<f32>() / d as f32;
            let inv = 1.0 / (ms + 1e-6).sqrt();
            row.iter_mut().for_each(|v| *v *= inv);
        }
        out
    }

    /// Token-local attention stand-in: `v ⊙ σ(q ⊙ k)`. It keeps all three
    /// projections on the path to the output without the cross-token
    /// score matrix, which is not part of the library.
    pub fn attend(q: &MatrixF32, k: &MatrixF32, v: &MatrixF32) -> MatrixF32 {
        let mut out = v.clone();
        for ((o, &q), &k) in out
            .as_mut_slice()
            .iter_mut()
            .zip(q.as_slice())
            .zip(k.as_slice())
        {
            *o /= 1.0 + (-(q * k)).exp();
        }
        out
    }

    /// SiLU gating: `silu(g) ⊙ u`.
    pub fn swiglu(g: &MatrixF32, u: &MatrixF32) -> MatrixF32 {
        let mut out = u.clone();
        for (o, &g) in out.as_mut_slice().iter_mut().zip(g.as_slice()) {
            *o *= g / (1.0 + (-g).exp());
        }
        out
    }

    /// Residual add: `x += y`.
    pub fn add(x: &mut MatrixF32, y: &MatrixF32) {
        for (a, &b) in x.as_mut_slice().iter_mut().zip(y.as_slice()) {
            *a += b;
        }
    }
}

/// One layer call kept for checking after the timed window: which layer,
/// its input and its output.
pub struct Call {
    pub layer: usize,
    pub input: std::rc::Rc<MatrixF32>,
    pub output: std::rc::Rc<MatrixF32>,
}

/// The span a unit of work (a prompt, a token) runs under.
#[derive(Debug, Clone, Copy)]
pub struct Under {
    pub group: u64,
    pub root: SpanId,
}

/// Run `x` through every block of the stack, calling each layer through
/// `entry` (`Op::Forward` or `Op::ForwardVec`). Each layer call and each
/// glue step is a span under `under`; every call is pushed onto `calls`
/// for checking once the caller's timer has stopped.
pub fn run_stack(
    layers: &[PreparedLayer],
    blobs: &[LayerBlob],
    entry: Op,
    mut x: MatrixF32,
    tracer: &mut Tracer,
    under: Under,
    calls: &mut Vec<Call>,
) -> Result<MatrixF32> {
    use std::rc::Rc;
    let (group, parent) = (under.group, Some(under.root));
    let mut call =
        |tracer: &mut Tracer, i: usize, input: &Rc<MatrixF32>| -> Result<Rc<MatrixF32>> {
            let role = blobs[i].role;
            let run = timed(tracer, role.span(entry), group, parent, || match entry {
                Op::ForwardVec => layers[i].forward_vec(input.as_slice()),
                _ => layers[i].forward(input),
            })?;
            let output = Rc::new(run.c);
            calls.push(Call {
                layer: i,
                input: input.clone(),
                output: output.clone(),
            });
            Ok(output)
        };
    for b in 0..layers.len() / Role::ALL.len() {
        let base = b * Role::ALL.len();
        let h = Rc::new(timed(tracer, SPAN_GLUE, group, parent, || {
            glue::rms_norm(&x)
        }));
        let q = call(tracer, base, &h)?;
        let k = call(tracer, base + 1, &h)?;
        let v = call(tracer, base + 2, &h)?;
        let a = Rc::new(timed(tracer, SPAN_GLUE, group, parent, || {
            glue::attend(&q, &k, &v)
        }));
        let o = call(tracer, base + 3, &a)?;
        let h = Rc::new(timed(tracer, SPAN_GLUE, group, parent, || {
            glue::add(&mut x, &o);
            glue::rms_norm(&x)
        }));
        let g = call(tracer, base + 4, &h)?;
        let u = call(tracer, base + 5, &h)?;
        let p = Rc::new(timed(tracer, SPAN_GLUE, group, parent, || {
            glue::swiglu(&g, &u)
        }));
        let down = call(tracer, base + 6, &p)?;
        timed(tracer, SPAN_GLUE, group, parent, || {
            glue::add(&mut x, &down)
        });
    }
    Ok(x)
}

/// Check every kept call at `cells` sampled output cells; returns the
/// number of calls with at least one mismatch.
pub fn check_calls(blobs: &[LayerBlob], calls: &[Call], cells: usize, rng: &mut SplitMix) -> u64 {
    calls
        .iter()
        .filter(|c| {
            blobs[c.layer]
                .oracle
                .mismatches(c.input.as_slice(), c.output.as_slice(), cells, rng)
                > 0
        })
        .count() as u64
}
