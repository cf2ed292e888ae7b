// Package nn is a small, from-scratch neural-network library: dense and
// ReLU layers with full backpropagation, the Adam optimizer, and a flat
// parameter-vector view used by the compression, aggregation, and
// serialization layers of LbChat.
//
// It substitutes for the PyTorch imitation-learning stack the paper runs on a
// GPU: same input/output contract and loss family, sized so that dozens of
// model replicas can be trained on a CPU inside the co-simulation.
package nn
