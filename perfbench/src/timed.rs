//! Outside-in layer timing: a [`ConvBackend`] that wraps the backend
//! under test, forwards every call unchanged, and records per layer the
//! number of calls, their process CPU time, and their GEMM MACs.

use std::sync::Mutex;

use greuse_nn::ConvBackend;
use greuse_tensor::{ConvSpec, Tensor, TensorError};

use crate::clock::process_cpu_ns;

/// Accumulated calls into one convolution layer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Layer name as the network passes it to the backend.
    pub name: String,
    /// Calls seen.
    pub calls: u64,
    /// Process CPU nanoseconds spent inside the wrapped backend.
    pub cpu_ns: u64,
    /// GEMM multiply-accumulates requested (`N · K · M` per call).
    pub macs: u64,
}

/// See the module docs.
pub struct Timed<'a> {
    inner: &'a dyn ConvBackend,
    layers: Mutex<Vec<LayerTime>>,
}

impl<'a> Timed<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn ConvBackend) -> Self {
        Timed {
            inner,
            layers: Mutex::new(Vec::new()),
        }
    }

    /// Per-layer totals so far, in first-call order.
    pub fn layers(&self) -> Vec<LayerTime> {
        self.layers
            .lock()
            .expect("timing lock is never poisoned")
            .clone()
    }

    fn record(&self, layer: &str, cpu_ns: u64, macs: u64) {
        let mut layers = self.layers.lock().expect("timing lock is never poisoned");
        let slot = match layers.iter().position(|l| l.name == layer) {
            Some(i) => &mut layers[i],
            None => {
                layers.push(LayerTime {
                    name: layer.to_string(),
                    ..LayerTime::default()
                });
                layers.last_mut().expect("just pushed")
            }
        };
        slot.calls += 1;
        slot.cpu_ns += cpu_ns;
        slot.macs += macs;
    }
}

fn macs(x: &Tensor<f32>, weights: &Tensor<f32>) -> u64 {
    (x.rows() * x.cols() * weights.rows()) as u64
}

impl ConvBackend for Timed<'_> {
    fn conv_gemm(
        &self,
        layer: &str,
        spec: &ConvSpec,
        x: &Tensor<f32>,
        weights: &Tensor<f32>,
    ) -> Result<Tensor<f32>, TensorError> {
        let t0 = process_cpu_ns();
        let out = self.inner.conv_gemm(layer, spec, x, weights);
        self.record(layer, process_cpu_ns() - t0, macs(x, weights));
        out
    }

    fn conv_gemm_into(
        &self,
        layer: &str,
        spec: &ConvSpec,
        x: &Tensor<f32>,
        weights: &Tensor<f32>,
        y: &mut Tensor<f32>,
    ) -> Result<(), TensorError> {
        let t0 = process_cpu_ns();
        let out = self.inner.conv_gemm_into(layer, spec, x, weights, y);
        self.record(layer, process_cpu_ns() - t0, macs(x, weights));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greuse::{QuantizedBackend, RandomHashProvider, ReuseBackend, ReusePattern};
    use greuse_nn::models::{CifarNet, ZooModel, ZooScale};
    use greuse_nn::DenseBackend;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn wrapper_is_bit_transparent_and_counts_every_call() {
        let net = ZooModel::CifarNet.build(ZooScale::Paper, 10, 3);
        let image = Tensor::from_fn(&[3, 32, 32], |i| ((i % 53) as f32 * 0.11).sin());
        let reuse = ReuseBackend::new(RandomHashProvider::new(1))
            .with_pattern("conv1", ReusePattern::conventional(25, 4));
        let quant = QuantizedBackend::new(RandomHashProvider::new(1))
            .with_pattern("conv2", ReusePattern::conventional(32, 4));
        let backends: [&dyn ConvBackend; 3] = [&DenseBackend, &reuse, &quant];
        for backend in backends {
            let plain = net.forward(&image, backend).unwrap();
            let timed = Timed::new(backend);
            let wrapped = net.forward(&image, &timed).unwrap();
            assert_eq!(bits(&plain), bits(&wrapped));
            let layers = timed.layers();
            assert_eq!(layers.len(), 2);
            assert!(layers.iter().all(|l| l.calls == 1 && l.macs > 0));
            assert_eq!(layers[0].name, "conv1");
        }
        // The direct (allocating) entry point is forwarded unchanged too.
        let x = Tensor::from_fn(&[64, 75], |i| ((i % 17) as f32 * 0.3).cos());
        let w = Tensor::from_fn(&[8, 75], |i| ((i % 13) as f32 * 0.2).sin());
        let spec = CifarNet::conv1_spec();
        let want = reuse.conv_gemm("conv1", &spec, &x, &w).unwrap();
        let got = Timed::new(&reuse)
            .conv_gemm("conv1", &spec, &x, &w)
            .unwrap();
        assert_eq!(bits(want.as_slice()), bits(got.as_slice()));
    }
}
