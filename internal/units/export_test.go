package units

// What only this package's tests read: no product path calls these,
// so they live beside the tests rather than on the package surface.

// BytesIn reports how many whole bytes rate r delivers in dt.
func (r BitRate) BytesIn(dt Time) int64 {
	if r <= 0 || dt <= 0 {
		return 0
	}
	return int64(float64(r) / 8 * dt.Seconds())
}
