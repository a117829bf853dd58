package render

// What only this package's tests read: no product path calls these,
// so they live beside the tests rather than on the package surface.

// FreezeFraction reports the fraction of displayed slots that were
// concealment repeats.
func (d *Displayed) FreezeFraction() float64 {
	if len(d.Frames) == 0 {
		return 0
	}
	return float64(d.Repeats) / float64(len(d.Frames))
}
