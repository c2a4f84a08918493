//! What each workload serves, and the reference answers every reply is
//! checked against: for a seeded input pool, `FrozenMlp::evaluate` on a
//! separately registered copy of each variant, computed before any timing.

use std::sync::Arc;

use adaptivfloat::FormatKind;
use af_models::ModelFamily;
use af_serve::{ModelRegistry, ModelVariant, VariantSpec};

use crate::measure::Outcome;
use crate::schedule::input_pool;
use crate::wire::{self, infer_request};

/// Layer widths of the served Transformer-family model.
pub const DIMS: [usize; 4] = [96, 192, 192, 48];
/// The fleet's small models.
pub const FLEET_DIMS: [usize; 4] = [64, 128, 128, 32];
/// Synthesis seed of the single-server models (the weights are part of
/// the system; only the traffic varies with `--seed`).
pub const MODEL_SEED: u64 = 0x5E12_F00D;
/// Inputs per variant in the seeded pool.
pub const POOL: usize = 128;

/// The fleet model re-registered every 250 ms in `fleet-churn`.
pub const SWAP_MODEL: usize = 6;

pub fn tcp_mixed() -> Vec<VariantSpec> {
    let q = |id: &str, kind| {
        VariantSpec::quantized(id, ModelFamily::Transformer, kind, 8, MODEL_SEED, &DIMS)
    };
    vec![
        VariantSpec::fp32(
            "transformer/fp32",
            ModelFamily::Transformer,
            MODEL_SEED,
            &DIMS,
        ),
        q("transformer/adaptivfloat8", FormatKind::AdaptivFloat),
        q("transformer/adaptivfloat8-fused", FormatKind::AdaptivFloat).fused(),
        q("transformer/uniform8-fused", FormatKind::Uniform).fused(),
        q("transformer/posit8", FormatKind::Posit),
    ]
}

/// Twelve small models mixing fp32, quantized, protected and fused
/// variants. Fused variants are AdaptivFloat or Uniform only: the
/// packed kernel has no Posit decoder.
pub fn fleet_churn() -> Vec<VariantSpec> {
    use FormatKind::{AdaptivFloat, Float, Posit, Uniform};
    use ModelFamily::{ResNet, Seq2Seq, Transformer};
    let fp32 = |i: u64, name: &str, family| {
        VariantSpec::fp32(
            &format!("fleet/{name}"),
            family,
            MODEL_SEED + i,
            &FLEET_DIMS,
        )
    };
    let q = |i: u64, name: &str, family, kind, n| {
        VariantSpec::quantized(
            &format!("fleet/{name}"),
            family,
            kind,
            n,
            MODEL_SEED + i,
            &FLEET_DIMS,
        )
    };
    vec![
        fp32(0, "m00-fp32", Transformer),
        fp32(1, "m01-fp32", ResNet),
        q(2, "m02-af8", Transformer, AdaptivFloat, 8),
        q(3, "m03-uniform8", Seq2Seq, Uniform, 8),
        q(4, "m04-posit8", ResNet, Posit, 8),
        q(5, "m05-float8", Transformer, Float, 8),
        q(6, "m06-af8-protected", Transformer, AdaptivFloat, 8).protected(),
        q(7, "m07-uniform8-protected", Seq2Seq, Uniform, 8).protected(),
        q(8, "m08-posit8-protected", ResNet, Posit, 8).protected(),
        q(9, "m09-af8-fused", Transformer, AdaptivFloat, 8).fused(),
        q(10, "m10-uniform8-fused", Seq2Seq, Uniform, 8).fused(),
        q(11, "m11-af4-fused", ResNet, AdaptivFloat, 4).fused(),
    ]
}

/// A workload's variants plus, per variant, the seeded input pool, the
/// reference outputs and the request bytes that carry each input.
#[derive(Debug)]
pub struct Catalog {
    pub specs: Vec<VariantSpec>,
    /// `inputs[v][i]`: pool input `i` of variant `v`.
    pub inputs: Vec<Vec<Vec<f32>>>,
    /// `expected[v][i]`: the reference output bits.
    pub expected: Vec<Vec<Vec<u32>>>,
    /// `expected_body[v][i]`: the reference output in the wire framing.
    pub expected_body: Vec<Vec<Vec<u8>>>,
    /// `requests[v][i]`: the HTTP request for input `i` of variant `v`.
    pub requests: Vec<Vec<Vec<u8>>>,
}

impl Catalog {
    pub fn build(specs: Vec<VariantSpec>, seed: u64) -> Catalog {
        let reference = ModelRegistry::new();
        let mut c = Catalog {
            specs: Vec::new(),
            inputs: Vec::new(),
            expected: Vec::new(),
            expected_body: Vec::new(),
            requests: Vec::new(),
        };
        for spec in &specs {
            let model = &reference
                .register(spec)
                .expect("reference registration")
                .model;
            let inputs = input_pool(seed, POOL, spec.dims[0]);
            let outputs: Vec<Vec<f32>> = inputs.iter().map(|x| model.evaluate(x)).collect();
            c.expected.push(
                outputs
                    .iter()
                    .map(|y| y.iter().map(|v| v.to_bits()).collect())
                    .collect(),
            );
            c.expected_body.push(
                outputs
                    .iter()
                    .map(|y| af_serve::http::encode_f32_body(y))
                    .collect(),
            );
            c.requests
                .push(inputs.iter().map(|x| infer_request(&spec.id, x)).collect());
            c.inputs.push(inputs);
        }
        c.specs = specs;
        c
    }

    /// Whether `output` is bit-identical to the reference for input `i`
    /// of variant `v`.
    pub fn matches(&self, v: usize, i: usize, output: &[f32]) -> bool {
        output.len() == self.expected[v][i].len()
            && output
                .iter()
                .zip(&self.expected[v][i])
                .all(|(a, &b)| a.to_bits() == b)
    }

    /// Send pool input 0 of variant 0 over a fresh connection to `addr`
    /// and check the reply bit-for-bit.
    pub fn first_reply_ok(&self, addr: std::net::SocketAddr) -> bool {
        let mut conn = wire::connect(addr).expect("connect probe");
        let (status, body) = wire::round_trip(
            &mut conn,
            &mut wire::ResponseFramer::default(),
            &self.requests[0][0],
        )
        .expect("first reply");
        wire::classify(status, &body, &self.expected_body[0][0]) == Outcome::Ok
    }

    pub fn ids(&self) -> impl Iterator<Item = &str> {
        self.specs.iter().map(|s| s.id.as_str())
    }
}

/// The served snapshot of every catalog variant, from `registry`.
pub fn served(registry: &ModelRegistry, catalog: &Catalog) -> Vec<Arc<ModelVariant>> {
    catalog
        .ids()
        .map(|id| registry.get(id).expect("catalog variant is registered"))
        .collect()
}
