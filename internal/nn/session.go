package nn

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Session is one network's resumable training run: the single epoch loop
// behind Train, TrainWith and TrainWithValidation, advanced in slices of
// epochs. It carries what must survive between slices: the epochs left in
// the budget, the TrainStats so far and, with a validation split, the best
// validation loss, the stagnant-epoch count and the best-weight snapshot.
// The batch buffers stay in the TrainScratch each slice is handed, so a
// scheduler running many sessions needs one scratch per worker, not one
// per session.
//
// The optimizer moments and the shuffle stream live in the network, so a
// budget run in any number of slices trains exactly the epochs of one
// call: the same weights, the same stats, bit for bit. A session must not
// be advanced from two goroutines at once, and the network must not be
// trained outside it until it finishes.
type Session struct {
	n    *Network
	x, y [][]float64
	v    Validation
	left int // epochs left in the budget
	st   TrainStats
	done bool

	// Validation state, used only when v carries a split.
	bestVal  float64
	stagnant int
	bestW    [][]float64 // best-validation weights of the trainable layers
	bestB    [][]float64
}

// NewSession checks the training data (and v's validation split) against
// the network's shape and returns a session with an epoch budget. Nothing
// trains until Train.
func (n *Network) NewSession(x, y [][]float64, epochs int, v Validation) (*Session, error) {
	s := &Session{}
	if err := s.init(n, x, y, epochs, v); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Session) init(n *Network, x, y [][]float64, epochs int, v Validation) error {
	if epochs <= 0 {
		return errors.New("nn: epochs must be positive")
	}
	if len(x) == 0 || len(x) != len(y) {
		return errors.New("nn: empty or mismatched training data")
	}
	for i := range x {
		if len(x[i]) != n.cfg.Inputs {
			return fmt.Errorf("nn: sample %d has %d features, want %d", i, len(x[i]), n.cfg.Inputs)
		}
		if len(y[i]) != n.cfg.Outputs {
			return fmt.Errorf("nn: target %d has %d values, want %d", i, len(y[i]), n.cfg.Outputs)
		}
	}
	var bestW, bestB [][]float64
	if len(v.X) > 0 {
		if len(v.X) != len(v.Y) {
			return errors.New("nn: mismatched validation data")
		}
		for i := range v.X {
			if len(v.X[i]) != n.cfg.Inputs || len(v.Y[i]) != n.cfg.Outputs {
				return fmt.Errorf("nn: validation sample %d has wrong shape", i)
			}
		}
		bestW = make([][]float64, len(n.layers))
		bestB = make([][]float64, len(n.layers))
	}
	*s = Session{
		n: n, x: x, y: y, v: v, left: epochs,
		bestVal: math.Inf(1), bestW: bestW, bestB: bestB,
	}
	return nil
}

// Train runs up to k more epochs of the budget on ts's buffers (nil
// borrows pooled scratch) and reports whether the session has finished:
// the budget is spent, or patience ran out. On finishing with a validation
// split, the network gets its best-validation weights back. Once finished,
// Train does nothing. Cancelling ctx stops at the next epoch boundary and
// returns the context's error; the network keeps the last completed
// epoch's weights, and the session can resume.
func (s *Session) Train(ctx context.Context, k int, ts *TrainScratch) (done bool, err error) {
	if s.done {
		return true, nil
	}
	if k <= 0 {
		return false, errors.New("nn: epochs must be positive")
	}
	if ts == nil {
		ts = trainScratchPool.Get().(*TrainScratch)
		defer trainScratchPool.Put(ts)
	}
	n, x, y := s.n, s.x, s.y
	n.ensureOptState()
	batch := n.cfg.BatchSize
	if batch > len(x) {
		batch = len(x)
	}
	ts.ensure(n, batch)
	if cap(ts.perm) < len(x) {
		ts.perm = make([]int, len(x))
	} else {
		ts.perm = ts.perm[:len(x)]
	}
	rng := n.shuffleStream()
	hasVal := len(s.v.X) > 0
	for ; k > 0 && s.left > 0; k-- {
		if err := ctx.Err(); err != nil {
			return false, fmt.Errorf("nn: training cancelled: %w", err)
		}
		// The permutation draws the same sequence as the retired
		// per-sample engine, so a fixed seed reproduces its batches.
		rng.PermInto(ts.perm)
		var epochLoss float64
		for start := 0; start < len(ts.perm); start += n.cfg.BatchSize {
			end := start + n.cfg.BatchSize
			if end > len(ts.perm) {
				end = len(ts.perm)
			}
			epochLoss += n.trainBatch(x, y, ts.perm[start:end], ts)
		}
		s.left--
		s.st.TrainLoss = epochLoss / float64(len(x))
		s.st.EpochsRun++
		if hasVal && s.validate(ts) {
			s.st.EarlyStopped = true
			break
		}
	}
	if s.left > 0 && !s.st.EarlyStopped {
		return false, nil
	}
	s.done = true
	if hasVal && s.st.BestEpoch > 0 {
		s.restoreBest()
		s.st.ValLoss = s.bestVal
	}
	return true, nil
}

// validate scores the epoch just trained on the validation split, keeps
// the best weights seen, and reports whether patience has run out.
func (s *Session) validate(ts *TrainScratch) (stop bool) {
	v, epoch := s.v, s.st.EpochsRun
	valLoss := s.n.evalWith(v.X, v.Y, ts)
	if valLoss < s.bestVal {
		// Strict-minimum tracking: the returned network's validation loss
		// is exactly the minimum observed across all epochs, and only a
		// new minimum resets the patience count.
		s.bestVal = valLoss
		s.st.BestEpoch = epoch
		s.snapshotBest()
		s.stagnant = 0
	} else {
		s.stagnant++
	}
	if v.Observer != nil {
		v.Observer(epoch, s.st.TrainLoss, valLoss)
	}
	return v.Patience > 0 && s.stagnant >= v.Patience
}

// Stats reports what the session has trained so far. ValLoss is set once
// the session finishes.
func (s *Session) Stats() TrainStats { return s.st }

// evalWith computes the mean loss over (x, y) without training, one row
// at a time through the scratch's validation forward buffers — the
// allocation-free per-epoch validation pass. Summation order matches
// scoring each row through Predict, so the two agree bit-for-bit on the
// same weights.
func (n *Network) evalWith(x, y [][]float64, ts *TrainScratch) float64 {
	var total float64
	for i := range x {
		total += n.lossValue(n.forward(&ts.val, x[i:i+1]), y[i])
	}
	return total / float64(len(x))
}

// snapshotBest copies the trainable layers' weights and biases into the
// session's best-weight buffers, growing them on the first snapshot.
// Frozen layers never change during training, so they are skipped: the
// fine-tune fast path snapshots only the adapting tail.
func (s *Session) snapshotBest() {
	for li := s.n.frozen; li < len(s.n.layers); li++ {
		l := s.n.layers[li]
		s.bestW[li] = append(s.bestW[li][:0], l.w...)
		s.bestB[li] = append(s.bestB[li][:0], l.b...)
	}
}

// restoreBest writes the snapshotted best weights back into the network,
// bit-for-bit.
func (s *Session) restoreBest() {
	for li := s.n.frozen; li < len(s.n.layers); li++ {
		l := s.n.layers[li]
		copy(l.w, s.bestW[li])
		copy(l.b, s.bestB[li])
	}
}
