package video

import (
	"sync"
	"testing"
)

func TestCachedCBRSharesAndMatches(t *testing.T) {
	ResetEncodingCache()
	defer ResetEncodingCache()
	a := CachedCBR(Lost(), 1.7e6)
	b := CachedCBR(Lost(), 1.7e6)
	if a != b {
		t.Error("same clip+rate did not share one encoding")
	}
	if c := CachedCBR(Lost(), 1.5e6); c == a {
		t.Error("different rates shared an encoding")
	}
	if d := CachedCBR(Dark(), 1.7e6); d == a {
		t.Error("different clips shared an encoding")
	}
	// Cached content must equal a direct encode, frame for frame.
	direct := EncodeCBR(Lost(), 1.7e6)
	if len(direct.Frames) != len(a.Frames) {
		t.Fatalf("frame counts differ: %d vs %d", len(a.Frames), len(direct.Frames))
	}
	for i := range direct.Frames {
		if direct.Frames[i] != a.Frames[i] {
			t.Fatalf("frame %d differs: %+v vs %+v", i, a.Frames[i], direct.Frames[i])
		}
	}
}

// TestCachedCustomClipNoNameCollision: a Custom clip that reuses a
// built-in name (and even its frame count) must not be served the
// built-in's cached encoding — the key is content, not name.
func TestCachedCustomClipNoNameCollision(t *testing.T) {
	ResetEncodingCache()
	defer ResetEncodingCache()
	builtin := CachedCBR(Lost(), 1.7e6)
	n := Lost().FrameCount()
	impostor := customClip("Lost", []Scene{{Frames: n, Motion: 0.9, Detail: 0.9, Color: 0.5}}, 7)
	if impostor.FrameCount() != n {
		t.Fatalf("impostor has %d frames, want %d", impostor.FrameCount(), n)
	}
	got := CachedCBR(impostor, 1.7e6)
	if got == builtin {
		t.Fatal("custom clip colliding on name+length was served the built-in's encoding")
	}
	direct := EncodeCBR(impostor, 1.7e6)
	if got.totalBytes() != direct.totalBytes() {
		t.Errorf("cached custom encoding differs from direct encode: %d vs %d bytes",
			got.totalBytes(), direct.totalBytes())
	}
}

func TestCachedVBRDistinctFromCBR(t *testing.T) {
	ResetEncodingCache()
	defer ResetEncodingCache()
	v := CachedVBR(Lost(), 1.0e6)
	c := CachedCBR(Lost(), 1.0e6)
	if v == c {
		t.Error("VBR and CBR at the same rate shared a cache slot")
	}
	if v.CBR || !c.CBR {
		t.Error("cache returned the wrong mode")
	}
	direct := EncodeVBR(Lost(), 1.0e6)
	if v.totalBytes() != direct.totalBytes() {
		t.Errorf("cached VBR differs from direct encode: %d vs %d bytes", v.totalBytes(), direct.totalBytes())
	}
}

func TestCachedEncodingConcurrent(t *testing.T) {
	ResetEncodingCache()
	defer ResetEncodingCache()
	const n = 16
	got := make([]*Encoding, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = CachedCBR(Lost(), 1.7e6)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent callers observed different encodings")
		}
	}
}
