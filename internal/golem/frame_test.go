package golem

import (
	"bytes"
	"math"
	"path"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// FuzzPartialCounts is the fuzz cover of the frame a coordinator reads in
// every part of a shard's enrichment answer. A frame the decoder rejects
// leaves the target untouched; one it accepts re-encodes to the same bytes.
// The committed seeds named valid-* must decode, those named reject-* must
// not, and none may make the decoder allocate more than about its length.
func FuzzPartialCounts(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var p PartialCounts
		err := p.UnmarshalBinary(data)
		if err != nil && !reflect.DeepEqual(p, PartialCounts{}) {
			t.Fatalf("rejected frame (%v) still wrote to the counts: %+v", err, p)
		}
		if err == nil {
			if back, err := p.AppendBinary(nil); err != nil || !bytes.Equal(back, data) {
				t.Fatalf("accepted frame re-encodes differently (%v)", err)
			}
		}
		name := path.Base(t.Name())
		valid := strings.HasPrefix(name, "valid-")
		if !valid && !strings.HasPrefix(name, "reject-") {
			return
		}
		if valid != (err == nil) {
			t.Errorf("%s: decode error %v", name, err)
		}
		least := uint64(math.MaxUint64)
		for range 3 {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			var q PartialCounts
			_ = q.UnmarshalBinary(data)
			runtime.ReadMemStats(&ms1)
			least = min(least, ms1.TotalAlloc-ms0.TotalAlloc)
		}
		if limit := uint64(2*len(data) + 1024); least > limit {
			t.Errorf("%s: decoding %d bytes allocated %d (limit %d)", name, len(data), least, limit)
		}
	})
}
