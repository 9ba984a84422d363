package pattern

import (
	"bytes"
	"testing"
)

// FuzzReadBinary hardens the binary decoder against corrupted tester
// images: any input must either round-trip-validate or return an error —
// never panic or hang.
func FuzzReadBinary(f *testing.F) {
	// Seed with a valid image and a few corruptions of it.
	ts := sampleSetSeed(1)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ts); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	truncMagic := append([]byte{}, valid...)
	truncMagic[0] = 'X'
	f.Add(truncMagic)
	f.Add([]byte{})
	f.Add([]byte("NTS2"))

	f.Fuzz(func(t *testing.T, data []byte) {
		ts, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything that decodes must satisfy the validator and re-encode.
		if verr := ts.Validate(); verr != nil {
			t.Fatalf("decoded set fails validation: %v", verr)
		}
		var out bytes.Buffer
		if werr := WriteBinary(&out, ts); werr != nil {
			t.Fatalf("re-encode failed: %v", werr)
		}
		if n := BinarySize(ts); n != out.Len() {
			t.Fatalf("BinarySize %d, re-encoded %d bytes", n, out.Len())
		}
	})
}

// FuzzReadJSON does the same for the JSON codec.
func FuzzReadJSON(f *testing.F) {
	ts := sampleSetSeed(2)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, ts); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"arch":[2,2],"theta":0.5,"leak":0.9,"wmax":10}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		ts, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := ts.Validate(); verr != nil {
			t.Fatalf("decoded set fails validation: %v", verr)
		}
	})
}
