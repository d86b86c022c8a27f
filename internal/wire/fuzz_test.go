package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"factorwindows/internal/stream"
)

// FuzzDecodeFrame feeds arbitrary bytes to the frame decoder (and the
// io.Reader wrapper over the same bytes) and pins the codec's safety
// contract: decoding never panics, never over-reads past the declared
// frame length, and every rejection is one of the package's typed
// errors — a malicious or corrupted peer can produce garbage results at
// worst, never a crash or an unbounded allocation.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendEventFrame(nil, nil))
	f.Add(AppendEventFrame(nil, []stream.Event{
		{Time: 1, Key: 7, Value: 21.5},
		{Time: 2, Key: 7, Value: math.Inf(-1)},
	}))
	enc := BeginResultFrame(nil, 9, 420, 2)
	enc.SetRow(0, 20, 20, 0, 20, 3, 1.5)
	enc.SetRow(1, 20, 20, 20, 40, 3, math.NaN())
	f.Add(enc.Bytes())
	f.Add(AppendControlFrame(nil, 1, []byte(`{"stream":1,"ok":true}`)))
	// Two concatenated frames, then corruptions of each header byte.
	two := AppendEventFrame(AppendControlFrame(nil, 0, nil), []stream.Event{{Time: 3, Key: 1, Value: 0.25}})
	f.Add(two)
	for i := 0; i < prefixLen+headerLen; i++ {
		mut := append([]byte(nil), two...)
		mut[i] ^= 0x80
		f.Add(mut)
	}
	f.Add(two[:len(two)-3]) // severed mid-frame
	// Row counts whose payload size arithmetic would overflow the u32
	// length prefix if computed in 32 bits: the decoder must reject on
	// the declared count alone, before any rows × column-stride math.
	f.Add(overflowRowsFrame(KindEvents, 0xFFFFFFFF))
	f.Add(overflowRowsFrame(KindResults, 0xFFFFFFFF/colWidth+1))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, rest, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrShort) && !errors.Is(err, ErrMagic) && !errors.Is(err, ErrVersion) &&
				!errors.Is(err, ErrKind) && !errors.Is(err, ErrTooLarge) && !errors.Is(err, ErrSize) {
				t.Fatalf("Decode returned untyped error %v", err)
			}
		} else {
			if len(rest) > len(data) {
				t.Fatalf("rest grew: %d > %d input bytes", len(rest), len(data))
			}
			exercise(t, fr)
		}

		// The streaming reader over the same bytes must agree: panic-free,
		// and ending only in io.EOF (clean) or a typed error.
		r := NewReader(bytes.NewReader(data))
		defer r.Close()
		for {
			fr, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrShort) && !errors.Is(err, ErrMagic) && !errors.Is(err, ErrVersion) &&
					!errors.Is(err, ErrKind) && !errors.Is(err, ErrTooLarge) && !errors.Is(err, ErrSize) {
					t.Fatalf("Reader.Next returned untyped error %v", err)
				}
				break
			}
			exercise(t, fr)
		}
	})
}

// overflowRowsFrame hand-assembles a frame whose header is well-formed
// (valid prefix, magic, version, kind) but declares a row count far
// beyond what the length prefix could ever carry: rows × the 8-byte
// column stride wraps a u32. The payload is empty — the decoder must
// never get as far as comparing payload lengths.
func overflowRowsFrame(kind byte, rows uint32) []byte {
	body := make([]byte, headerLen)
	body[0], body[1], body[2] = 'F', 'W', Version
	body[3] = kind
	binary.LittleEndian.PutUint32(body[4:], rows)
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	return append(buf, body...)
}

// TestDecodeRejectsRowsOverflow pins the typed rejection for declared
// row counts that would overflow 32-bit payload-size arithmetic: the
// decoder bounds rows against MaxFrameRows before multiplying by any
// column stride, so a 2^32-1 declaration fails with ErrTooLarge rather
// than wrapping into a plausible payload length and over-reading.
func TestDecodeRejectsRowsOverflow(t *testing.T) {
	cases := []struct {
		name string
		kind byte
		rows uint32
	}{
		{"events/max-u32", KindEvents, 0xFFFFFFFF},
		{"results/stride-wrap", KindResults, 0xFFFFFFFF/colWidth + 1},
		{"events/just-over-cap", KindEvents, MaxFrameRows + 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := overflowRowsFrame(tc.kind, tc.rows)
			if _, _, err := Decode(buf); !errors.Is(err, ErrTooLarge) {
				t.Fatalf("Decode(rows=%#x) = %v, want ErrTooLarge", tc.rows, err)
			}
			// The streaming reader must reach the same typed verdict.
			r := NewReader(bytes.NewReader(buf))
			defer r.Close()
			if _, err := r.Next(); !errors.Is(err, ErrTooLarge) {
				t.Fatalf("Reader.Next(rows=%#x) = %v, want ErrTooLarge", tc.rows, err)
			}
		})
	}
	// Sanity anchor: the same hand-built frame with an in-bounds row
	// count of zero decodes cleanly, proving the rejections above come
	// from the row bound and not a malformed header.
	for _, kind := range []byte{KindEvents, KindResults} {
		if _, _, err := Decode(overflowRowsFrame(kind, 0)); err != nil {
			t.Fatalf("control frame (kind %d, 0 rows) rejected: %v", kind, err)
		}
	}
}

// exercise touches every accessor of a successfully decoded frame, so
// the fuzzer catches any row-count/payload-length mismatch as an
// out-of-range panic, and any disagreement between the batch and
// per-row event decoders.
func exercise(t *testing.T, f Frame) {
	t.Helper()
	n := f.Rows()
	switch f.Kind {
	case KindEvents:
		// The one-pass batch decode must agree bit for bit with the
		// per-row accessor, also when appending behind existing events.
		lead := stream.Event{Time: -1, Key: 1, Value: 2}
		got := f.AppendEvents([]stream.Event{lead})
		if len(got) != n+1 || got[0] != lead {
			t.Fatalf("AppendEvents returned %d events (lead %+v), Rows says %d", len(got)-1, got[0], n)
		}
		for i := 0; i < n; i++ {
			e, b := f.Event(i), got[i+1]
			if e.Time != b.Time || e.Key != b.Key || math.Float64bits(e.Value) != math.Float64bits(b.Value) {
				t.Fatalf("row %d: Event %+v, AppendEvents %+v", i, e, b)
			}
		}
	case KindResults:
		for i := 0; i < n; i++ {
			_, _, _, _, _, _, _ = f.Result(i)
		}
	case KindControl:
		_ = f.Control()
	default:
		t.Fatalf("decoded frame has unknown kind %d", f.Kind)
	}
}
