package staticindex

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/frame"
)

// FuzzReadIndex feeds ReadFrom arbitrary bytes, as Load reads them from
// disk: it must never panic, and an index it accepts must survive a
// WriteTo and a second ReadFrom unchanged. Seeds are the two golden
// indexes (TestIndexGoldenBytes pins their bytes), their prefixes, and
// copies whose envelope version byte is one off either way.
func FuzzReadIndex(f *testing.F) {
	for _, n := range []int{2, 80} {
		var buf bytes.Buffer
		if _, err := goldenIndex(n).WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		enc := buf.Bytes()
		f.Add(enc)
		for i := 0; i < len(enc) && i < 256; i++ {
			f.Add(enc[:i])
		}
		payload := enc[frame.HeaderSize:]
		for _, v := range []byte{payload[1] - 1, payload[1] + 1} {
			flipped := append([]byte(nil), payload...)
			flipped[1] = v
			f.Add(frame.New(flipped))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		idx, err := ReadFrom(bytes.NewReader(body))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := idx.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := ReadFrom(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(idx, again) {
			t.Fatalf("round trip diverged:\n%+v\n%+v", idx, again)
		}
	})
}
