package faults

import (
	"reflect"
	"testing"
)

// FuzzParseSpec checks the -fault-spec grammar on arbitrary input: it
// never panics; an accepted spec re-renders with String to text that
// parses back to the identical spec; and Empty holds exactly when
// String renders nothing, so no accepted fault is lost in the round
// trip.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"",
		"drop:p=0.01",
		"flap:first=12s,down=250ms,period=20s,count=4;drop:p=0.01;dup:p=0.005;corrupt:p=0.01;stall:at=15s,for=3s;sinkfail:p=0.1",
		"stall:at=2s,for=3s;stall:at=1s,for=1s;stall:at=1s,for=500ms",
		"drop:p=1e-300;dup:p=1;corrupt:p=-0",
		"drop:p=Inf",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseSpec(in)
		if err != nil {
			return
		}
		out := s.String()
		if s.Empty() != (out == "") {
			t.Fatalf("ParseSpec(%q): Empty() = %v but String() = %q", in, s.Empty(), out)
		}
		again, err := ParseSpec(out)
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted, but its String %q does not parse: %v", in, out, err)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("round trip of %q through %q changed the spec:\n%+v\n%+v", in, out, s, again)
		}
	})
}
