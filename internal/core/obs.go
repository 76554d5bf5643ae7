package core

import (
	"orpheusdb/internal/obs"
)

// Metrics holds the optional latency histograms a CVD observes into. All
// fields may be nil (obs histogram methods are nil-safe), so an
// uninstrumented CVD — library use, most tests — pays a nil field read per
// operation and nothing more.
type Metrics struct {
	// CheckoutHit/CheckoutMiss split end-to-end checkout latency by whether
	// the materialization was served from the checkout cache — the
	// distribution pair behind the paper's checkout-latency claims.
	CheckoutHit  *obs.Histogram
	CheckoutMiss *obs.Histogram
	// Commit observes core commit latency: the plan (hash matching) plus
	// the install (model write + metadata), not the WAL append a store
	// runs between them. Merge latency is observed one layer up, by the store's
	// Merge wrapper, since a merge spans branch resolution the CVD cannot
	// see.
	Commit *obs.Histogram
}

// SetMetrics attaches the latency histograms observed by Checkout and
// Commit. Like SetCache, call it before the CVD is shared.
func (c *CVD) SetMetrics(m *Metrics) { c.metrics = m }

// SetHeat attaches the per-version access tracker credited by Checkout,
// MultiVersionCheckout, AllVersionsCheckout, Commit, and Merge. Like
// SetCache, call it before the CVD is shared.
func (c *CVD) SetHeat(h *Heat) { c.heat = h }

// Heat returns the attached access tracker (nil when none).
func (c *CVD) Heat() *Heat { return c.heat }

// observeCheckout routes one checkout duration to the hit or miss histogram.
func (c *CVD) observeCheckout(seconds float64, hit bool) {
	if c.metrics == nil {
		return
	}
	if hit {
		c.metrics.CheckoutHit.Observe(seconds)
	} else {
		c.metrics.CheckoutMiss.Observe(seconds)
	}
}
