package trace

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/kernels"
)

// captureKernel records one kernel for artifact tests.
func captureKernel(t *testing.T, name string, ext isa.Ext) (*Trace, *isa.Program) {
	t.Helper()
	k, err := kernels.ByName(name, kernels.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	p := k.Build(ext)
	tr, err := Capture(emu.New(p), testMaxSteps, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr, p
}

// encode renders a trace's artifact bytes.
func encode(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := tr.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	if n != tr.EncodedSize() {
		t.Fatalf("EncodedSize says %d, WriteTo wrote %d", tr.EncodedSize(), n)
	}
	return buf.Bytes()
}

// drain replays a source to completion.
func drain(t *testing.T, src Source) []emu.Dyn {
	t.Helper()
	var out []emu.Dyn
	for {
		d, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, d)
	}
	if err := src.Err(); err != nil {
		t.Fatalf("source fault: %v", err)
	}
	return out
}

// TestArtifactRoundTrip checks encode → decode → re-encode byte identity and
// record-for-record replay equality across kernels and ISAs.
func TestArtifactRoundTrip(t *testing.T) {
	for _, name := range []string{"idct", "motion1"} {
		for _, ext := range []isa.Ext{isa.ExtAlpha, isa.ExtMOM} {
			name, ext := name, ext
			t.Run(name+"/"+ext.String(), func(t *testing.T) {
				t.Parallel()
				tr, p := captureKernel(t, name, ext)
				blob := encode(t, tr)

				dec, err := Decode(bytes.NewReader(blob), p)
				if err != nil {
					t.Fatal(err)
				}
				if dec.Records() != tr.Records() || dec.Chunks() != tr.Chunks() || dec.Bytes() != tr.Bytes() {
					t.Fatalf("decoded shape %d/%d/%d, captured %d/%d/%d",
						dec.Records(), dec.Chunks(), dec.Bytes(), tr.Records(), tr.Chunks(), tr.Bytes())
				}
				if again := encode(t, dec); !bytes.Equal(again, blob) {
					t.Fatal("re-encoded artifact differs from the original bytes")
				}

				want := drain(t, tr.Reader())
				got := drain(t, dec.Reader())
				if len(got) != len(want) {
					t.Fatalf("replay lengths: capture %d, decode %d", len(want), len(got))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("record %d: decoded %+v != captured %+v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestArtifactCorruption flips, truncates and mislabels artifact bytes and
// requires every damaged form to fail with ErrFormat — never decode wrong.
func TestArtifactCorruption(t *testing.T) {
	tr, p := captureKernel(t, "idct", isa.ExtMOM)
	blob := encode(t, tr)
	headerLen := bytes.IndexByte(blob, '\n') + 1

	check := func(t *testing.T, data []byte) {
		t.Helper()
		if _, err := Decode(bytes.NewReader(data), p); !errors.Is(err, ErrFormat) {
			t.Fatalf("Decode accepted damaged artifact (err=%v)", err)
		}
	}

	t.Run("bad magic", func(t *testing.T) {
		data := append([]byte(nil), blob...)
		copy(data, "momtrace 9")
		check(t, data)
	})
	t.Run("fingerprint mismatch", func(t *testing.T) {
		// A different program's artifact must not decode for p.
		other, _ := captureKernel(t, "idct", isa.ExtAlpha)
		check(t, encode(t, other))
	})
	t.Run("truncated header", func(t *testing.T) {
		check(t, blob[:headerLen/2])
	})
	t.Run("truncated payload", func(t *testing.T) {
		check(t, blob[:headerLen+(len(blob)-headerLen)/2])
	})
	t.Run("flipped payload byte", func(t *testing.T) {
		data := append([]byte(nil), blob...)
		data[len(data)-9] ^= 0x40
		check(t, data)
	})
	t.Run("trailing bytes", func(t *testing.T) {
		check(t, append(append([]byte(nil), blob...), 0))
	})
	t.Run("record count lie", func(t *testing.T) {
		// Rewrite the header to claim one record fewer; framing no longer
		// adds up and the decoder must notice.
		var fp string
		var records uint64
		var chunks int
		if _, err := fmt.Sscanf(string(blob[:headerLen]), fileMagic+" %16s %d %d\n", &fp, &records, &chunks); err != nil {
			t.Fatal(err)
		}
		hdr := []byte(fmt.Sprintf("%s %s %d %d\n", fileMagic, fp, records-1, chunks))
		check(t, append(hdr, blob[headerLen:]...))
	})
}
