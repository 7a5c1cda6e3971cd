package nn

import (
	"context"
	"fmt"
)

// SetFrozenLayers freezes the first k layers: their weights and biases stop
// receiving optimizer updates while gradients still flow through them to
// earlier computations. This implements the transfer-learning scheme the
// paper proposes in §5 for adapting the model to platform changes without
// regenerating the full training dataset: freeze the initial layers,
// retrain the rest on a much smaller new dataset.
func (n *Network) SetFrozenLayers(k int) error {
	if k < 0 || k > len(n.layers) {
		return fmt.Errorf("nn: cannot freeze %d of %d layers", k, len(n.layers))
	}
	n.frozen = k
	return nil
}

// TrainEpochs continues training from the current weights for the given
// number of epochs (respecting frozen layers) and returns the mean training
// loss of the final epoch. Unlike Train, it does not reset any state — call
// it repeatedly for staged training schedules. Frozen layers skip backward
// compute entirely, so a mostly frozen fine-tune costs a fraction of a full
// backward pass.
func (n *Network) TrainEpochs(ctx context.Context, x, y [][]float64, epochs int) (float64, error) {
	return n.TrainWith(ctx, x, y, epochs, nil)
}

// LayerCount returns the number of trainable layers (hidden + output).
func (n *Network) LayerCount() int { return len(n.layers) }
