package obs

// Quantile estimates the q-quantile of the observed distribution.
func (h *Histogram) Quantile(q float64) float64 {
	return quantileOf(&h.buckets, h.count, h.max, q)
}
