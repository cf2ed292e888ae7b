// Package nn is a small, from-scratch neural-network library: dense and
// ReLU layers with full backpropagation, the Adam optimizer, and a flat
// parameter-vector view used by the compression, aggregation, and
// serialization layers of LbChat. There is no container type: a network
// (model.Policy) holds its layers and calls them in order, forward and
// back, giving its first layer Dense.BackwardParams.
//
// It substitutes for the PyTorch imitation-learning stack the paper runs on a
// GPU: same input/output contract and loss family, sized so that dozens of
// model replicas can be trained on a CPU inside the co-simulation.
package nn
