//! The layer graph: a topologically ordered DAG of tensor ops with fp32
//! parameters, the front-end representation the quantizer and compiler
//! consume. The TSP's graph-lowering compiler "transform\[s\] higher rank
//! tensors into rank-2 tensors over hardware-supported data types"
//! (paper §II-A); this module is where those higher-rank tensors live.

use std::collections::BTreeMap;

/// Convolution hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvSpec {
    /// Output channels.
    pub c_out: u32,
    /// Kernel size (k×k).
    pub k: u32,
    /// Stride.
    pub stride: u32,
    /// Zero padding.
    pub pad: u32,
    /// Fused ReLU.
    pub relu: bool,
}

/// A graph operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// The network input image, `h×w×c`.
    Input {
        /// Height.
        h: u32,
        /// Width.
        w: u32,
        /// Channels.
        c: u32,
    },
    /// 2-D convolution (+ optional fused ReLU).
    Conv(ConvSpec),
    /// Max pooling.
    MaxPool {
        /// Window.
        k: u32,
        /// Stride.
        stride: u32,
        /// Zero padding.
        pad: u32,
    },
    /// Global average pooling over the spatial dims.
    GlobalAvgPool,
    /// Fully connected layer (+ optional fused ReLU).
    Dense {
        /// Output features.
        out: u32,
        /// Fused ReLU.
        relu: bool,
    },
    /// Element-wise residual add of two inputs (+ optional fused ReLU).
    Add {
        /// Fused ReLU.
        relu: bool,
    },
}

/// One node: an op applied to earlier nodes.
#[derive(Debug, Clone)]
pub struct Node {
    /// The operation.
    pub op: Op,
    /// Indices of input nodes (must be `<` this node's index).
    pub inputs: Vec<usize>,
    /// Human-readable name (layer labels in figures).
    pub name: String,
}

/// The inferred output shape of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// A spatial feature map.
    Map {
        /// Height.
        h: u32,
        /// Width.
        w: u32,
        /// Channels.
        c: u32,
    },
    /// A flat feature vector.
    Flat {
        /// Features.
        n: u32,
    },
}

/// Conv weights: `w[co][ci][ky][kx]`, flattened row-major.
#[derive(Debug, Clone)]
pub struct ConvW {
    /// Flattened weights.
    pub w: Vec<f32>,
    /// Output channels.
    pub co: u32,
    /// Input channels.
    pub ci: u32,
    /// Kernel size.
    pub k: u32,
}

impl ConvW {
    /// Weight at `[co][ci][ky][kx]`.
    #[must_use]
    pub fn at(&self, co: u32, ci: u32, ky: u32, kx: u32) -> f32 {
        self.w[(((co * self.ci + ci) * self.k + ky) * self.k + kx) as usize]
    }
}

/// Dense weights: `w[out][in]`, flattened row-major.
#[derive(Debug, Clone)]
pub struct DenseW {
    /// Flattened weights.
    pub w: Vec<f32>,
    /// Output features.
    pub out: u32,
    /// Input features.
    pub inp: u32,
}

impl DenseW {
    /// Weight at `[out][in]`.
    #[must_use]
    pub fn at(&self, o: u32, i: u32) -> f32 {
        self.w[(o * self.inp + i) as usize]
    }
}

/// Floating-point parameters, keyed by node index.
#[derive(Debug, Clone, Default)]
pub struct Params {
    /// Conv weights per conv node.
    pub conv: BTreeMap<usize, ConvW>,
    /// Dense weights per dense node.
    pub dense: BTreeMap<usize, DenseW>,
}

/// A layer graph in topological order (node 0 is the input).
#[derive(Debug, Clone, Default)]
pub struct Graph {
    /// The nodes.
    pub nodes: Vec<Node>,
}

impl Graph {
    /// Creates a graph whose node 0 is the input.
    #[must_use]
    pub fn with_input(h: u32, w: u32, c: u32) -> Graph {
        Graph {
            nodes: vec![Node {
                op: Op::Input { h, w, c },
                inputs: vec![],
                name: "input".into(),
            }],
        }
    }

    /// Appends a node; returns its index.
    ///
    /// # Panics
    ///
    /// Panics if an input index is not an earlier node.
    pub fn push(&mut self, op: Op, inputs: Vec<usize>, name: impl Into<String>) -> usize {
        let id = self.nodes.len();
        assert!(
            inputs.iter().all(|&i| i < id),
            "inputs must precede the node"
        );
        self.nodes.push(Node {
            op,
            inputs,
            name: name.into(),
        });
        id
    }

    /// Infers every node's output shape.
    ///
    /// # Panics
    ///
    /// Panics on malformed graphs (shape mismatches).
    #[must_use]
    pub fn shapes(&self) -> Vec<Shape> {
        let mut out: Vec<Shape> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let shape = match &node.op {
                Op::Input { h, w, c } => Shape::Map {
                    h: *h,
                    w: *w,
                    c: *c,
                },
                Op::Conv(spec) => {
                    let Shape::Map { h, w, .. } = out[node.inputs[0]] else {
                        panic!("conv on flat input at {}", node.name);
                    };
                    Shape::Map {
                        h: (h + 2 * spec.pad - spec.k) / spec.stride + 1,
                        w: (w + 2 * spec.pad - spec.k) / spec.stride + 1,
                        c: spec.c_out,
                    }
                }
                Op::MaxPool { k, stride, pad } => {
                    let Shape::Map { h, w, c } = out[node.inputs[0]] else {
                        panic!("pool on flat input at {}", node.name);
                    };
                    Shape::Map {
                        h: (h + 2 * pad - k) / stride + 1,
                        w: (w + 2 * pad - k) / stride + 1,
                        c,
                    }
                }
                Op::GlobalAvgPool => {
                    let Shape::Map { c, .. } = out[node.inputs[0]] else {
                        panic!("global pool on flat input at {}", node.name);
                    };
                    Shape::Flat { n: c }
                }
                Op::Dense { out: o, .. } => Shape::Flat { n: *o },
                Op::Add { .. } => {
                    let a = out[node.inputs[0]];
                    let b = out[node.inputs[1]];
                    assert_eq!(a, b, "residual add shape mismatch at {}", node.name);
                    a
                }
            };
            out.push(shape);
        }
        out
    }

    /// Number of learnable parameters given `params`.
    #[must_use]
    pub fn parameter_count(&self, params: &Params) -> usize {
        params.conv.values().map(|c| c.w.len()).sum::<usize>()
            + params.dense.values().map(|d| d.w.len()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_inference_through_a_block() {
        let mut g = Graph::with_input(8, 8, 3);
        let c1 = g.push(
            Op::Conv(ConvSpec {
                c_out: 16,
                k: 3,
                stride: 1,
                pad: 1,
                relu: true,
            }),
            vec![0],
            "c1",
        );
        let p = g.push(
            Op::MaxPool {
                k: 2,
                stride: 2,
                pad: 0,
            },
            vec![c1],
            "p",
        );
        let gap = g.push(Op::GlobalAvgPool, vec![p], "gap");
        let d = g.push(
            Op::Dense {
                out: 10,
                relu: false,
            },
            vec![gap],
            "fc",
        );
        let shapes = g.shapes();
        assert_eq!(shapes[c1], Shape::Map { h: 8, w: 8, c: 16 });
        assert_eq!(shapes[p], Shape::Map { h: 4, w: 4, c: 16 });
        assert_eq!(shapes[gap], Shape::Flat { n: 16 });
        assert_eq!(shapes[d], Shape::Flat { n: 10 });
    }

    #[test]
    fn residual_add_requires_matching_shapes() {
        let mut g = Graph::with_input(4, 4, 8);
        let c = g.push(
            Op::Conv(ConvSpec {
                c_out: 8,
                k: 1,
                stride: 1,
                pad: 0,
                relu: false,
            }),
            vec![0],
            "c",
        );
        g.push(Op::Add { relu: true }, vec![0, c], "add");
        let shapes = g.shapes();
        assert_eq!(shapes[2], Shape::Map { h: 4, w: 4, c: 8 });
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn bad_residual_panics() {
        let mut g = Graph::with_input(4, 4, 8);
        let c = g.push(
            Op::Conv(ConvSpec {
                c_out: 16,
                k: 1,
                stride: 1,
                pad: 0,
                relu: false,
            }),
            vec![0],
            "c",
        );
        g.push(Op::Add { relu: false }, vec![0, c], "add");
        let _ = g.shapes();
    }

    #[test]
    fn conv_weight_indexing() {
        let w = ConvW {
            w: (0..2 * 3 * 2 * 2).map(|i| i as f32).collect(),
            co: 2,
            ci: 3,
            k: 2,
        };
        assert_eq!(w.at(0, 0, 0, 0), 0.0);
        assert_eq!(w.at(1, 2, 1, 1), (3 * 4 + 2 * 4 + 2 + 1) as f32);
    }
}
