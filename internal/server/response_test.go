package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWorkloadErrorsCarryOnePrefix pins the 400 reason for a bad
// workload on every route that takes one: model.Workload.Validate already
// says "workload:", so no handler may add the prefix again.
func TestWorkloadErrorsCarryOnePrefix(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct{ route, body, want string }{
		{"/v1/simulate", `{"config":{"preset":"a100"},"workload":{"model":"gpt3","batch":-1}}`,
			"workload: batch, input and output lengths must be positive"},
		{"/v1/simulate", `{"config":{"preset":"a100"},"workload":{"model":"bert"}}`,
			`workload: unknown model "bert" (gpt3, llama3)`},
		{"/v1/dse", `{"table3":{"tpp":4800},"workload":{"batch":-1}}`,
			"workload: batch, input and output lengths must be positive"},
		{"/v1/search", `{"engine":"nsga2","budget":8,"workload":{"batch":-1}}`,
			"workload: batch, input and output lengths must be positive"},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+tc.route, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400", tc.route, tc.body, resp.StatusCode)
			continue
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("%s: %v in %q", tc.route, err, body)
		}
		if er.Error != tc.want {
			t.Errorf("%s %s: error %q, want %q", tc.route, tc.body, er.Error, tc.want)
		}
	}
}

// TestUnencodableResponseIs500 pins the status of a response whose value
// cannot be encoded: a clock of 1e308 GHz overflows the derived figures
// to +Inf, which encoding/json rejects. The client must get a 500 naming
// the encode error, never a 200 with an empty body, and the request log
// must record the 500.
func TestUnencodableResponseIs500(t *testing.T) {
	var logs bytes.Buffer
	s := New(Config{
		Workers: 1,
		Backlog: 1,
		Logger:  slog.New(slog.NewTextHandler(&logs, nil)),
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	for _, route := range []string{"/v1/classify", "/v1/simulate"} {
		logs.Reset()
		resp, body := postJSON(t, ts.URL+route, `{"config":{"preset":"a100","clock_ghz":1e308}}`)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("%s: status %d with body %q, want 500", route, resp.StatusCode, body)
			continue
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("%s: %v in %q", route, err, body)
		}
		if !strings.HasPrefix(er.Error, "encoding response: ") || !strings.Contains(er.Error, "unsupported value") {
			t.Errorf("%s: error %q, want the encode error as the reason", route, er.Error)
		}
		if !strings.Contains(logs.String(), "status=500") {
			t.Errorf("%s: request log %q does not record status=500", route, logs.String())
		}
	}
}
