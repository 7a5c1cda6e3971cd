package serve

import (
	"context"
	"fmt"
	"time"

	"sizeless"
)

// AdaptConfig drives the unattended §5 loop: when drift recomputations
// sweep through enough of the fleet within one observation interval, the
// workload has shifted platform-wide — not one noisy function — and the
// daemon fine-tunes the serving model on a fresh adaptation dataset, then
// swaps the adapted model into the live service.
type AdaptConfig struct {
	// Source supplies the adaptation dataset when the quorum fires —
	// typically a small measurement campaign on the serving platform, or
	// a file an operator keeps fresh. nil disables the loop.
	Source func(ctx context.Context) (*sizeless.Dataset, error)
	// Interval is the drift-quorum observation window (default 30s).
	Interval time.Duration
	// Quorum is the fraction of recommendation-bearing functions that
	// must recompute within one interval to fire, in (0,1]; zero selects
	// the default 0.25.
	Quorum float64
	// Patience is the early-stopping budget passed to Adapt as
	// WithEarlyStopping: adaptation datasets are small, so a fixed epoch
	// budget routinely overfits (default 10).
	Patience int
	// Options are appended to the Adapt call (freeze depth, epoch budget,
	// seed). The service keeps the provider it was built for, so an
	// adapted model that targets another provider is never swapped in.
	Options []sizeless.Option
}

// adaptMinFunctions is the absolute floor of drifted functions for the
// quorum to fire: a quorum of a three-function fleet is noise, not a
// platform shift.
const adaptMinFunctions = 4

func (c AdaptConfig) enabled() bool { return c.Source != nil }

func (c AdaptConfig) withDefaults() AdaptConfig {
	if c.Interval <= 0 {
		c.Interval = 30 * time.Second
	}
	if c.Quorum <= 0 {
		c.Quorum = 0.25
	}
	if c.Patience <= 0 {
		c.Patience = 10
	}
	return c
}

func (c AdaptConfig) validate() error {
	if !c.enabled() {
		return nil
	}
	if !(c.Quorum >= 0 && c.Quorum <= 1) { // negative or NaN never means the default
		return fmt.Errorf("serve: adapt quorum %v outside (0,1]", c.Quorum)
	}
	return nil
}

// adaptLoop watches the fleet's recomputation counters and runs the
// adapt-and-swap cycle when the drift quorum fires. Failures are logged
// and retried at the next firing — an unattended loop must degrade to
// "keep serving the current model", never crash the daemon.
func (s *Server) adaptLoop(ctx context.Context) {
	cfg := s.cfg.Adapt.withDefaults()
	t := time.NewTicker(cfg.Interval)
	defer t.Stop()
	seen := make(map[string]int) // recomputations per function at last tick
	var lastSwap time.Time
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		fleet := s.svc.Fleet()
		drifted, recommended := 0, 0
		for _, st := range fleet {
			if !st.HasRecommendation {
				continue
			}
			recommended++
			if st.Recomputations > seen[st.FunctionID] {
				drifted++
			}
			seen[st.FunctionID] = st.Recomputations
		}
		if recommended == 0 || drifted < adaptMinFunctions ||
			float64(drifted) < cfg.Quorum*float64(recommended) {
			continue
		}
		// After a swap, four intervals let the fleet's recomputations
		// converge on the new model before the quorum may fire again.
		if !lastSwap.IsZero() && time.Since(lastSwap) < 4*cfg.Interval {
			s.cfg.Logf("serve: adapt: quorum fired (%d/%d drifted) but cooling down", drifted, recommended)
			continue
		}
		s.cfg.Logf("serve: adapt: fleet drift quorum fired: %d/%d functions recomputed within %v",
			drifted, recommended, cfg.Interval)
		if err := s.adaptOnce(ctx, cfg); err != nil {
			s.cfg.Logf("serve: adapt: %v", err)
			s.recordError(err)
			continue
		}
		lastSwap = time.Now()
	}
}

// adaptOnce runs one fine-tune-and-swap cycle: fetch the adaptation
// dataset, Adapt the serving model with early stopping, and swap it into
// the service. That one store moves ingest, /v1/recommend, /v1/healthz and
// later snapshots together, since all of them read the service's model.
// A model adapted to another provider is refused: the service would price
// it with the serving provider's prices.
func (s *Server) adaptOnce(ctx context.Context, cfg AdaptConfig) error {
	ds, err := cfg.Source(ctx)
	if err != nil {
		return fmt.Errorf("adaptation dataset: %w", err)
	}
	opts := append([]sizeless.Option{sizeless.WithEarlyStopping(cfg.Patience)}, cfg.Options...)
	adapted, err := s.cfg.Predictor.Serving(s.svc).Adapt(ctx, ds, opts...)
	if err != nil {
		return fmt.Errorf("adapt: %w", err)
	}
	if target, serving := adapted.Provenance().Target, s.cfg.Predictor.Provider().Name(); target != serving {
		return fmt.Errorf("adapt: adapted model targets provider %s, the service serves %s; not swapped", target, serving)
	}
	if err := adapted.SwapServiceModel(s.svc); err != nil {
		return fmt.Errorf("swap: %w", err)
	}
	s.adaptations.Add(1)
	prov := adapted.Provenance()
	fp, fpErr := adapted.Fingerprint()
	if fpErr != nil {
		fp = "unknown"
	}
	s.cfg.Logf("serve: adapt: swapped in adapted model %s (%d/%d epochs, early-stopped=%v)",
		fp, prov.EpochsSpent, prov.Epochs, prov.EarlyStopped)
	return nil
}
