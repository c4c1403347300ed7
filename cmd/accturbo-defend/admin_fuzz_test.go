package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"accturbo"
)

// TestConfigPatchRejectsOutOfRangeDurations: a millisecond value whose
// nanoseconds do not fit in int64 is a malformed request naming the
// field, not a converted duration handed to validation.
func TestConfigPatchRejectsOutOfRangeDurations(t *testing.T) {
	d := accturbo.NewDefense(accturbo.HardwareConfig())
	defer d.Close()
	h := singleRoutes(d, nil)["/config"]
	for _, field := range []string{
		"poll_interval_ms", "deploy_delay_ms", "reseed_interval_ms",
		"fail_open_after_ms", "watchdog_interval_ms",
	} {
		for _, v := range []string{"1e13", "-1e13", "1e308"} {
			rec := httptest.NewRecorder()
			h(rec, httptest.NewRequest(http.MethodPut, "/config", strings.NewReader(`{"`+field+`":`+v+`}`)))
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), field) {
				t.Errorf("%s=%s: %d %q, want 400 naming the field", field, v, rec.Code, rec.Body)
			}
		}
	}
	if g := d.ConfigGeneration(); g != 1 {
		t.Fatalf("rejected patches moved the config generation to %d", g)
	}
}

// FuzzConfigPatch drives PUT /config with arbitrary bodies: the handler
// never panics or answers 5xx, a refused patch leaves the generation and
// the runtime config unchanged, and an accepted patch answers the same
// document a following GET serves.
func FuzzConfigPatch(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"ranking":"N.P.","poll_interval_ms":125}`,
		`{"poll_interval_ms":1e13}`,
		`{"deploy_delay_ms":-5}`,
		`{"reseed_interval_ms":0,"fail_open_after_ms":3000,"watchdog_interval_ms":250}`,
		`{"ranking":"bogus"}`,
		`{"poll_interval_ms":`,
		`null`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		d := accturbo.NewDefense(accturbo.HardwareConfig())
		defer d.Close()
		h := singleRoutes(d, nil)["/config"]
		gen, rt := d.ConfigGeneration(), d.Runtime()

		put := httptest.NewRecorder()
		h(put, httptest.NewRequest(http.MethodPut, "/config", strings.NewReader(body)))
		if put.Code >= 500 {
			t.Fatalf("PUT %q answered %d: %s", body, put.Code, put.Body)
		}
		if put.Code != http.StatusOK {
			if g, r := d.ConfigGeneration(), d.Runtime(); g != gen || r != rt {
				t.Fatalf("PUT %q answered %d but changed the config: generation %d -> %d, %+v -> %+v",
					body, put.Code, gen, g, rt, r)
			}
			return
		}
		get := httptest.NewRecorder()
		h(get, httptest.NewRequest(http.MethodGet, "/config", nil))
		if !bytes.Equal(put.Body.Bytes(), get.Body.Bytes()) {
			t.Fatalf("PUT %q answered %s, a following GET %s", body, put.Body, get.Body)
		}
	})
}
