// Package nn implements the feed-forward neural network behind the paper's
// multi-target regression model (§3.4) from scratch on the standard
// library: dense layers with ReLU activations, SGD/Adam/Adagrad optimizers,
// MSE/MAE/MAPE losses, and L2 weight regularization — the exact menu the
// paper's hyperparameter grid search explores (Table 2).
//
// The final paper configuration is four hidden layers of 256 neurons,
// Adam, MAPE loss, 200 epochs, and L2 = 0.01.
//
// # Training engine
//
// Training runs on a flat-weight, mini-batch engine: each layer's weights
// live in one contiguous row-major []float64, and a whole mini-batch
// moves through the network as a (batch × dim) matrix per layer — a
// zero-skipping forward with fused bias+ReLU (dense.trainForward, every
// layer the first included; see Zero skipping), and a matching batched
// backward pass. The batch, non-zero list, activation, delta, gradient,
// shuffle and validation buffers live in a reusable TrainScratch, and the
// optimizer moment buffers live on the network's layers (allocated when
// training first needs them, released by DropOptimizerState), so the
// steady-state epoch loop performs zero allocations. Frozen layers (see
// SetFrozenLayers) skip backward compute entirely, not just the weight
// update. See engine.go for the kernels and TrainScratch for the buffer
// ownership rules.
//
// Training has two doors onto one epoch loop. Network.Train runs the
// configured epoch budget in one call. NewSession returns a Session: a
// resumable run that keeps its budget, stats and early-stopping state
// between slices of epochs, so a scheduler can interleave many networks'
// training on a few workers (one TrainScratch per worker) without
// changing a bit of any network. A session with a validation split scores
// it after every epoch (allocation-free, via the scratch), snapshots the
// best weights seen, and stops after a configurable patience; the network
// it finishes with is the best-validation model, not the last-epoch one.
// The optimizer moments and the epoch-shuffle stream live in the network,
// so a budget trained in any number of session slices reproduces one
// continuous call bit-for-bit.
//
// # Inference
//
// Inference has one kernel, dense.forwardInto, and ForwardBatch runs every
// row of a batch through it one layer at a time, so a batch equals Predict
// on each of its rows bit for bit. It keeps the summation order of the
// dense dot product dotBias: four lane accumulators (index mod 4), then
// the bias and the four lanes, then the tail. Each hidden layer lists its
// non-zero outputs by lane, in ascending order, for the next layer. The
// first layer reads the scaled features, which are seldom zero, through
// the dense loop.
//
// # Zero skipping
//
// Both forwards leave out every term whose input is an exact zero: in a
// 4×256 model's hidden layers, about 60% of the inputs are the ReLU's
// dead units, both while it trains and once it is trained. Their orders differ, and each is frozen
// into every trained model. In training, each row lists its non-zero
// inputs once per layer, ascending, and each output sums one chain from
// +0 in ascending input index, then adds the bias; the rows past a
// batch's last multiple of four take dotBias's order instead. Inference
// keeps dotBias's order, lane by lane.
//
// No output bit changes. With finite weights a skipped term w·(±0) is
// ±0, and adding ±0 leaves any sum unchanged except −0, which none of
// these sums can be. Every chain (a training output's sum before its
// bias, an inference lane) starts at +0, and in round-to-nearest x + y is
// −0 only when both are −0, so a chain is never −0. Adding the bias to a
// chain, or a lane to the bias, then gives no −0 either, nor does any
// later partial sum.
//
// # Determinism policy
//
// The kernels are bit-reproducible: pure scalar kernels with frozen
// summation orders, a fixed sample order within every mini-batch, and no
// parallelism inside a single Train call. A fixed seed reproduces the same
// weights to the last bit on every platform, serialization is
// byte-identical across runs, and the retired per-sample loop in
// reference_test.go is the 1e-6 parity oracle. Every test fixture and
// every saved model file is pinned against these kernels.
//
// The determinism analyzer in internal/analysis enforces this
// mechanically: no file in this package may accumulate floats into shared
// state from pool worker closures.
package nn

import (
	"errors"
	"fmt"
	"math"

	"sizeless/internal/xrand"
)

// Optimizer selects the gradient-descent variant (Table 2 row "Optimizer").
type Optimizer string

// Supported optimizers.
const (
	SGD     Optimizer = "sgd"
	Adam    Optimizer = "adam"
	Adagrad Optimizer = "adagrad"
)

// Loss selects the training objective (Table 2 row "Loss").
type Loss string

// Supported losses.
const (
	MSE  Loss = "mse"
	MAE  Loss = "mae"
	MAPE Loss = "mape"
)

// Config describes a network.
type Config struct {
	// Inputs and Outputs are the feature and target dimensionalities.
	Inputs  int
	Outputs int
	// Hidden lists the hidden-layer widths (paper final: 4 × 256).
	Hidden []int
	// Optimizer, Loss, L2, Epochs: the Table-2 hyperparameters.
	Optimizer Optimizer
	Loss      Loss
	L2        float64
	Epochs    int
	// LearningRate defaults to 0.001 for Adam/Adagrad and 0.01 for SGD.
	LearningRate float64
	// BatchSize defaults to 32.
	BatchSize int
	// Seed drives weight initialization and batch shuffling.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.LearningRate <= 0 {
		switch c.Optimizer {
		case SGD:
			c.LearningRate = 0.01
		case Adagrad:
			// Adagrad's accumulating denominator needs a larger base rate.
			c.LearningRate = 0.05
		default:
			c.LearningRate = 0.001
		}
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.Epochs <= 0 {
		c.Epochs = 200
	}
	if c.Optimizer == "" {
		c.Optimizer = Adam
	}
	if c.Loss == "" {
		c.Loss = MSE
	}
	return c
}

func (c Config) validate() error {
	if c.Inputs <= 0 || c.Outputs <= 0 {
		return errors.New("nn: inputs and outputs must be positive")
	}
	for _, h := range c.Hidden {
		if h <= 0 {
			return errors.New("nn: hidden layer width must be positive")
		}
	}
	switch c.Optimizer {
	case SGD, Adam, Adagrad:
	default:
		return fmt.Errorf("nn: unknown optimizer %q", c.Optimizer)
	}
	switch c.Loss {
	case MSE, MAE, MAPE:
	default:
		return fmt.Errorf("nn: unknown loss %q", c.Loss)
	}
	if c.L2 < 0 {
		return errors.New("nn: negative L2")
	}
	return nil
}

// dense is one fully connected layer. Weights are stored flat in row-major
// order (w[o*in+i] is the weight from input i to output o), so a whole
// mini-batch multiplies through one contiguous array instead of chasing
// per-row slice headers.
type dense struct {
	in, out int
	w       []float64 // out×in, row-major
	b       []float64 // out
	relu    bool      // apply ReLU after affine (hidden layers only)

	// Optimizer moment state, same layout as w/b. Allocated lazily on the
	// first training step (inference-only networks never pay for it):
	// mW/mB for Adam's first moment, vW/vB for Adam's and Adagrad's
	// second moment.
	mW, vW []float64
	mB, vB []float64
}

// init draws the layer's weights and zeroes its biases.
func (d *dense) init(rng *xrand.Stream) {
	d.w = make([]float64, d.out*d.in)
	// He initialization, appropriate for ReLU networks. Draw order is
	// row-major, matching the original nested-slice layout so a fixed seed
	// reproduces the same initial weights across engine versions.
	scale := math.Sqrt(2.0 / float64(d.in))
	for j := range d.w {
		d.w[j] = rng.NormFloat64() * scale
	}
	d.b = make([]float64, d.out)
}

// row returns output o's weight row.
func (d *dense) row(o int) []float64 { return d.w[o*d.in : (o+1)*d.in] }

// ensureOptState allocates the moment buffers the optimizer needs. Called
// at the start of every session slice; repeated calls are no-ops so a
// sliced session keeps its accumulated statistics.
func (n *Network) ensureOptState() {
	for _, d := range n.layers {
		switch n.cfg.Optimizer {
		case Adam:
			if d.mW == nil {
				d.mW = make([]float64, len(d.w))
				d.mB = make([]float64, len(d.b))
			}
			fallthrough
		case Adagrad:
			if d.vW == nil {
				d.vW = make([]float64, len(d.w))
				d.vB = make([]float64, len(d.b))
			}
		}
	}
}

// DropOptimizerState releases the optimizer's moment buffers (under Adam,
// twice the memory of the weights) and its step count, leaving the
// network as a freshly loaded one: it predicts the same, and training it
// again starts the optimizer afresh. It is for a network that is done
// training; it must not be called between a session's slices.
func (n *Network) DropOptimizerState() {
	n.step = 0
	for _, d := range n.layers {
		d.mW, d.mB, d.vW, d.vB = nil, nil, nil, nil
	}
}

// Network is a trained or trainable MLP.
type Network struct {
	cfg    Config
	layers []*dense
	step   int // Adam timestep
	frozen int // first `frozen` layers receive no updates
	// shuffle is the epoch-shuffle stream, created lazily from the seed on
	// the first training slice and persisted across slices so a session
	// advanced in slices consumes the exact permutation sequence of one
	// continuous run. Not serialized: a loaded network starts a fresh
	// stream, as before.
	shuffle *xrand.Stream
}

// New constructs a network with randomly initialized weights.
func New(cfg Config) (*Network, error) {
	n, err := newLayers(cfg)
	if err != nil {
		return nil, err
	}
	rng := xrand.New(n.cfg.Seed).Derive("nn-init")
	for _, d := range n.layers {
		d.init(rng)
	}
	return n, nil
}

// newLayers constructs a network of cfg's layer widths whose weights and
// biases are not yet allocated.
func newLayers(cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sizes := append([]int{cfg.Inputs}, cfg.Hidden...)
	sizes = append(sizes, cfg.Outputs)
	n := &Network{cfg: cfg}
	for l := 0; l+1 < len(sizes); l++ {
		relu := l+2 < len(sizes) // all but the output layer
		n.layers = append(n.layers, &dense{in: sizes[l], out: sizes[l+1], relu: relu})
	}
	return n, nil
}

// Config returns the network's configuration.
func (n *Network) Config() Config { return n.cfg }

// Predict runs a forward pass for one sample, returning a fresh slice. It
// is a one-row ForwardBatch, so it shares the batch path's kernel and
// pooled scratch.
func (n *Network) Predict(x []float64) ([]float64, error) {
	out := make([]float64, n.cfg.Outputs)
	if err := n.ForwardBatch([][]float64{x}, [][]float64{out}, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// denseInto computes the layer output for one sample from a dense input
// into out without allocating, through the four-accumulator dotBias. The
// inference kernel runs the first layer through it, and trainForward
// every training row past a batch's last multiple of four.
func (d *dense) denseInto(x, out []float64) {
	for o := range out {
		s := dotBias(d.row(o), x, d.b[o])
		if d.relu && s < 0 {
			s = 0
		}
		out[o] = s
	}
}

// lossAndGradInto computes the per-sample loss, writing dL/dpred into grad
// (which must be len(pred) long). It is the allocation-free core of the
// batched loss pass.
func (n *Network) lossAndGradInto(pred, truth, grad []float64) float64 {
	var loss float64
	const eps = 1e-8
	k := float64(len(pred))
	switch n.cfg.Loss {
	case MSE:
		for i := range pred {
			d := pred[i] - truth[i]
			loss += d * d
			grad[i] = 2 * d / k
		}
		loss /= k
	case MAE:
		for i := range pred {
			d := pred[i] - truth[i]
			loss += math.Abs(d)
			grad[i] = sign(d) / k
		}
		loss /= k
	case MAPE:
		for i := range pred {
			denom := math.Abs(truth[i])
			if denom < eps {
				denom = eps
			}
			d := pred[i] - truth[i]
			loss += math.Abs(d) / denom
			grad[i] = sign(d) / denom / k
		}
		loss /= k
	}
	return loss
}

// lossValue computes the per-sample loss without a gradient, in the exact
// summation order of lossAndGradInto — the validation-scoring twin.
func (n *Network) lossValue(pred, truth []float64) float64 {
	var loss float64
	const eps = 1e-8
	switch n.cfg.Loss {
	case MSE:
		for i := range pred {
			d := pred[i] - truth[i]
			loss += d * d
		}
	case MAE:
		for i := range pred {
			loss += math.Abs(pred[i] - truth[i])
		}
	case MAPE:
		for i := range pred {
			denom := math.Abs(truth[i])
			if denom < eps {
				denom = eps
			}
			loss += math.Abs(pred[i]-truth[i]) / denom
		}
	}
	return loss / float64(len(pred))
}

func sign(x float64) float64 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}
