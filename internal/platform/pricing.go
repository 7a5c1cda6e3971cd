package platform

import "time"

// Pricer is the billing scheme of one FaaS platform: what one invocation
// of duration d at memory size m costs, and how raw durations round to
// billed durations. PricingModel (linear GB-second billing, AWS/Azure
// style) and TieredPricing (per-tier bundled rates, GCP gen1 style) are
// the built-in implementations; custom platforms supply their own.
type Pricer interface {
	// Cost returns the price in dollars of one invocation of duration d
	// at memory size m.
	Cost(m MemorySize, d time.Duration) float64
	// BilledDuration rounds d up to the platform's billing rules
	// (granularity and minimum charge).
	BilledDuration(d time.Duration) time.Duration
}

// PricingModel is the serverless billing scheme described in paper §2:
// cost = ceil(duration / granularity) * granularity * memGB * rate
//   - request charge.
type PricingModel struct {
	// GBSecondRate is the price per GB-second of compute ($0.0000166667
	// on AWS at the time of the paper; the paper's §2 example rounds it to
	// $0.00001667).
	GBSecondRate float64
	// RequestCharge is the static per-invocation charge ($0.0000002).
	RequestCharge float64
	// BillingGranularity is the duration rounding unit. AWS billed in
	// 100 ms increments until December 2020 and 1 ms afterwards; the
	// motivating-example data [11] predates the change, the case-study
	// measurements straddle it. Default: 1 ms.
	BillingGranularity time.Duration
	// MinBilled is the minimum billed duration per invocation (Azure's
	// consumption plan charges at least 100 ms of execution). Zero means
	// no minimum beyond one granule.
	MinBilled time.Duration
}

var _ Pricer = PricingModel{}

// DefaultPricing returns the AWS Lambda pricing model with 1 ms granularity.
func DefaultPricing() PricingModel {
	return PricingModel{
		GBSecondRate:       0.0000166667,
		RequestCharge:      0.0000002,
		BillingGranularity: time.Millisecond,
	}
}

// BilledDuration rounds d up to the billing granularity and applies the
// platform's minimum charge. Durations of zero still bill one granule, as
// on the real platform.
func (p PricingModel) BilledDuration(d time.Duration) time.Duration {
	return billedDuration(d, p.BillingGranularity, p.MinBilled)
}

// billedDuration implements granule rounding plus a minimum charge, shared
// by every built-in Pricer.
func billedDuration(d, granularity, minBilled time.Duration) time.Duration {
	g := granularity
	if g <= 0 {
		g = time.Millisecond
	}
	billed := g
	if d > 0 {
		billed = (d + g - 1) / g * g
	}
	if billed < minBilled {
		billed = minBilled
	}
	return billed
}

// Cost returns the price in dollars of one invocation of duration d at
// memory size m.
func (p PricingModel) Cost(m MemorySize, d time.Duration) float64 {
	billed := p.BilledDuration(d).Seconds()
	return billed*m.GB()*p.GBSecondRate + p.RequestCharge
}

// TieredPricing bills a bundled per-second rate per memory tier — the GCP
// Cloud Functions gen1 scheme, where each tier pairs a fixed memory amount
// with a fixed CPU clock and the published price folds GB-seconds and
// GHz-seconds into one number.
type TieredPricing struct {
	// SecondRate maps memory tier → dollars per billed second of
	// execution (compute only; the request charge is separate).
	SecondRate map[MemorySize]float64
	// RequestCharge is the static per-invocation charge.
	RequestCharge float64
	// BillingGranularity is the duration rounding unit (GCP gen1: 100 ms).
	BillingGranularity time.Duration
	// MinBilled is the minimum billed duration per invocation.
	MinBilled time.Duration
}

var _ Pricer = TieredPricing{}

// BilledDuration rounds d up to the billing granularity and minimum.
func (p TieredPricing) BilledDuration(d time.Duration) time.Duration {
	return billedDuration(d, p.BillingGranularity, p.MinBilled)
}

// rate returns the per-second rate for m: the exact tier if listed,
// otherwise the nearest listed tier's rate scaled by the memory ratio — a
// smooth extension so optimizers can score off-tier candidates.
func (p TieredPricing) rate(m MemorySize) float64 {
	if r, ok := p.SecondRate[m]; ok {
		return r
	}
	tiers := make([]MemorySize, 0, len(p.SecondRate))
	for t := range p.SecondRate {
		tiers = append(tiers, t)
	}
	near := Nearest(m, tiers)
	if near == 0 {
		return 0
	}
	return p.SecondRate[near] * float64(m) / float64(near)
}

// Cost returns the price in dollars of one invocation of duration d at
// memory tier m.
func (p TieredPricing) Cost(m MemorySize, d time.Duration) float64 {
	return p.BilledDuration(d).Seconds()*p.rate(m) + p.RequestCharge
}
