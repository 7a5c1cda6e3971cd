package platform

import "time"

// Config bundles the complete platform description: resource scaling,
// pricing, and instance-lifecycle behaviour. A zero Config is not useful;
// construct one with DefaultConfig.
type Config struct {
	Resources ResourceModel
	// Pricing is the billing scheme. Built-in providers use PricingModel
	// (linear GB-second) or TieredPricing (per-tier bundled rates).
	Pricing Pricer
	// Grid is the set of deployable memory sizes. A zero Grid falls back
	// to the AWS Lambda grid of the paper's era (128–3008 MB in 64 MB
	// steps).
	Grid Grid
	// ColdStartBase is the platform-side provisioning delay for a new
	// function instance (sandbox creation + runtime boot), independent of
	// memory size.
	ColdStartBase time.Duration
	// ColdStartPerMB shortens runtime initialization at larger sizes: the
	// runtime boot is CPU-bound and therefore faster with a larger CPU
	// share. Expressed as the 128 MB initialization duration; it scales
	// with SingleThreadSpeed.
	ColdStartInit128 time.Duration
	// KeepAlive is how long an idle instance stays warm before the
	// platform reclaims it (~10 minutes on AWS at the time).
	KeepAlive time.Duration
	// ConcurrencyLimit caps simultaneous instances per function (AWS
	// default account limit: 1000).
	ConcurrencyLimit int
}

// DefaultConfig returns the calibrated AWS-Lambda-like platform.
func DefaultConfig() Config {
	return Config{
		Resources:        *DefaultResourceModel(),
		Pricing:          DefaultPricing(),
		Grid:             SteppedGrid(128, 3008, 64),
		ColdStartBase:    180 * time.Millisecond,
		ColdStartInit128: 350 * time.Millisecond,
		KeepAlive:        10 * time.Minute,
		ConcurrencyLimit: 1000,
	}
}

// ValidSize reports whether m is deployable on this platform, honouring
// the configured grid and falling back to the AWS Lambda grid of the
// paper's era when no grid is set.
func (c Config) ValidSize(m MemorySize) bool {
	if c.Grid.IsZero() {
		return SteppedGrid(Mem128, Mem3008, 64).Valid(m)
	}
	return c.Grid.Valid(m)
}

// ColdStartDelay returns the total cold-start penalty at memory size m.
func (c Config) ColdStartDelay(m MemorySize) time.Duration {
	speed := c.Resources.SingleThreadSpeed(m)
	if speed <= 0 {
		speed = 1e-3
	}
	init := time.Duration(float64(c.ColdStartInit128) * c.Resources.SingleThreadSpeed(Mem128) / speed)
	return c.ColdStartBase + init
}
