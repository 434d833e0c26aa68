package memsim

// LoadLatencyNs returns the representative (midpoint) load latency.
func (d DeviceSpec) LoadLatencyNs() float64 {
	return (d.LoadLatencyMinNs + d.LoadLatencyMaxNs) / 2
}

// BandwidthGBs returns the representative (midpoint) bandwidth.
func (d DeviceSpec) BandwidthGBs() float64 {
	return (d.BandwidthMinGBs + d.BandwidthMaxGBs) / 2
}
