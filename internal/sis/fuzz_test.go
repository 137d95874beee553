package sis

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"qoadvisor/internal/rules"
)

// FuzzParse feeds arbitrary bytes to the hint-file parser — the served leg
// loads exactly this format over HTTP. Parse never panics; it returns the
// File, or the error text, the string-splitting reference parser does
// (parseRef); a file it accepts and Validate passes survives Serialize and
// Parse unchanged; and what Serialize writes for it is a fixed point of
// parse-then-serialize.
// The committed corpus (testdata/fuzz/FuzzParse) holds the benchmark's
// day-10 file, the same with CRLF line ends, "+R12abc" (which once parsed
// as rule 12), the empty file, a bare header, blank and space-padded
// lines, a duplicate template and a short line.
func FuzzParse(f *testing.F) {
	cat := rules.NewCatalog()
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Parse(bytes.NewReader(data))
		if msg := sameAsReference(data, file, err); msg != "" {
			t.Fatal(msg)
		}
		if err != nil {
			return
		}
		if Validate(file, cat) != nil {
			return
		}
		var first bytes.Buffer
		if err := Serialize(&first, file); err != nil {
			t.Fatalf("Serialize: %v", err)
		}
		again, err := Parse(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("Parse rejects what Serialize wrote for an accepted file: %v\n%s", err, first.Bytes())
		}
		if !reflect.DeepEqual(again, file) {
			t.Fatalf("round trip changed the file:\n%+v\nwas\n%+v", again, file)
		}
		var second bytes.Buffer
		if err := Serialize(&second, again); err != nil {
			t.Fatalf("Serialize: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Serialize is not a fixed point:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// sameAsReference holds one Parse result to parseRef's on the same
// bytes; it returns what differs, or "".
func sameAsReference(data []byte, got File, gotErr error) string {
	want, wantErr := parseRef(bytes.NewReader(data))
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		return fmt.Sprintf("Parse error %v, reference %v\n%q", gotErr, wantErr, data)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("Parse %+v, reference %+v\n%q", got, want, data)
	}
	return ""
}
