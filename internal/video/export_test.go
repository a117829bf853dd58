package video

// What only this package's tests read: no product path calls these,
// so they live beside the tests rather than on the package surface.

// Frame dimensions of the clips (§3.2.1.1).
const (
	width  = 320
	height = 240
)

// BigYUVFrameBytes is the size of one decoded frame in the BigYUV
// 4:2:2 format: 2 bytes per pixel = 153.6 kB (§3.2.1.1).
const BigYUVFrameBytes = width * height * 2

// MeanDistortion reports the average per-frame coding penalty.
func (e *Encoding) MeanDistortion() float64 {
	if len(e.Frames) == 0 {
		return 0
	}
	s := 0.0
	for _, f := range e.Frames {
		s += f.Distortion
	}
	return s / float64(len(e.Frames))
}
