package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"diversefw/internal/engine"
	"diversefw/internal/field"
	"diversefw/internal/frontend"
	"diversefw/internal/rule"
)

// The same anomalous five-tuple policy in all four formats: a broad
// tcp/80 accept, a narrower tcp/80 accept it makes dead weight, and a
// default deny. The pairwise taxonomy flags the pair as redundancy; the
// exact checks prove rule 2 is never a first match and semantically
// redundant.
const (
	anomalousNative = `dport in 80 && proto in tcp -> accept
src in 10.0.0.0/8 && dport in 80 && proto in tcp -> accept
any -> discard
`
	anomalousIptables = `*filter
:INPUT DROP [0:0]
-A INPUT -p tcp --dport 80 -j ACCEPT
-A INPUT -s 10.0.0.0/8 -p tcp --dport 80 -j ACCEPT
COMMIT
`
	anomalousNftables = `table inet filter {
    chain input {
        type filter hook input priority 0; policy drop;
        tcp dport 80 accept
        ip saddr 10.0.0.0/8 tcp dport 80 accept
    }
}
`
	anomalousSecgroup = `[
  {"IpProtocol": "tcp", "FromPort": 80, "ToPort": 80,
   "IpRanges": [{"CidrIp": "0.0.0.0/0"}]},
  {"IpProtocol": "tcp", "FromPort": 80, "ToPort": 80,
   "IpRanges": [{"CidrIp": "10.0.0.0/8"}]}
]`
)

// TestAnalyzeAllFormats is the acceptance check: /v1/analyze returns
// findings from both the pairwise taxonomy and the exact checks for the
// same policy submitted in each registered format.
func TestAnalyzeAllFormats(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	defer srv.Close()
	inputs := map[string]PolicyInput{
		"native":   {Text: anomalousNative},
		"iptables": {Format: "iptables", Text: anomalousIptables},
		"nftables": {Format: "nftables", Text: anomalousNftables},
		"secgroup": {Format: "secgroup", Text: anomalousSecgroup},
	}
	for format, input := range inputs {
		t.Run(format, func(t *testing.T) {
			var resp AnalyzeResponse
			code := do(t, srv, "/v1/analyze", AnalyzeRequest{Schema: "five", Policy: input}, &resp)
			if code != http.StatusOK {
				t.Fatalf("status = %d", code)
			}
			bySource := map[string]int{}
			kinds := map[string]bool{}
			for _, f := range resp.Findings {
				bySource[f.Source]++
				kinds[f.Kind] = true
				if f.Severity == "" || len(f.Rules) == 0 || f.Detail == "" {
					t.Errorf("incomplete finding: %+v", f)
				}
			}
			if bySource["pairwise"] == 0 || bySource["exact"] == 0 {
				t.Fatalf("want findings from both sources, got %+v (%+v)", bySource, resp.Findings)
			}
			for _, kind := range []string{"redundancy", "never-first-match", "redundant"} {
				if !kinds[kind] {
					t.Errorf("missing %s finding in %+v", kind, resp.Findings)
				}
			}
			if resp.Complexity.Rules != 3 || resp.Complexity.Fields != 5 {
				t.Errorf("complexity = %+v, want 3 rules over 5 fields", resp.Complexity)
			}
			if len(resp.Complexity.PerField) != 5 || resp.Complexity.Intervals == 0 {
				t.Errorf("complexity per-field profile = %+v", resp.Complexity)
			}
		})
	}
}

// TestAnalyzeSeverities pins the severity grading on a shadowing case.
func TestAnalyzeSeverities(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	defer srv.Close()
	// Rule 2 is shadowed by rule 1 with the opposite decision: pairwise
	// shadowing and exact never-first-match, both errors.
	shadowed := "dport in 80 && proto in tcp -> accept\nsrc in 10.0.0.0/8 && dport in 80 && proto in tcp -> discard\nany -> discard\n"
	var resp AnalyzeResponse
	if code := do(t, srv, "/v1/analyze", AnalyzeRequest{Schema: "five", Policy: in(shadowed)}, &resp); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	want := map[string]string{"shadowing": "error", "never-first-match": "error"}
	seen := map[string]string{}
	for _, f := range resp.Findings {
		seen[f.Kind] = f.Severity
	}
	for kind, sev := range want {
		if seen[kind] != sev {
			t.Errorf("%s severity = %q, want %q (findings: %+v)", kind, seen[kind], sev, resp.Findings)
		}
	}
}

// TestCrossFormatRoundTrip is the acceptance round trip: the nftables
// and native encodings of one policy lower to identical IR, share one
// compiled FDD in the engine cache, and /v1/diff sees no discrepancies.
func TestCrossFormatRoundTrip(t *testing.T) {
	t.Parallel()
	schema := field.IPv4FiveTuple()
	native := "src in 10.0.0.0/8 && dport in 22 && proto in tcp -> accept\ndport in 80|443 && proto in tcp -> accept\nany -> discard\n"
	nft := `table inet filter {
    chain input {
        type filter hook input priority 0; policy drop;
        ip saddr 10.0.0.0/8 tcp dport 22 accept
        tcp dport { 80, 443 } accept
    }
}
`
	// Identical lowered IR: the canonical renderings match byte for byte.
	pNative, err := frontend.Parse("native", schema, native, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pNft, err := frontend.Parse("nftables", schema, nft, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := rule.FormatPolicy(pNative), rule.FormatPolicy(pNft); a != b {
		t.Fatalf("lowered IR differs:\n%s\nvs\n%s", a, b)
	}
	// ...and so do their content addresses, which hash the IR itself.
	if a, b := engine.PolicyHash(pNative), engine.PolicyHash(pNft); a != b {
		t.Fatalf("PolicyHash differs for identical IR: %s vs %s", a, b)
	}

	// One shared cache entry: diffing the two encodings compiles once.
	srv := NewServer()
	defer srv.Close()
	var dr DiffResponse
	code := do(t, srv, "/v1/diff", DiffRequest{
		Schema: "five",
		A:      in(native),
		B:      PolicyInput{Format: "nftables", Text: nft},
	}, &dr)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !dr.Equivalent || len(dr.Discrepancies) != 0 {
		t.Fatalf("diff = %+v, want equivalent with no discrepancies", dr)
	}
	if got := srv.Engine().Stats().Compilations; got != 1 {
		t.Fatalf("Compilations = %d, want 1 (same canonical IR must share the compiled FDD)", got)
	}
}

// TestBareStringBackCompat pins the original wire contract: raw JSON
// bodies with bare-string policies still work, and marshaling a native
// PolicyInput emits the bare string — old clients see the old wire.
func TestBareStringBackCompat(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	defer srv.Close()
	body := `{"schema": "five", "a": "any -> accept\n", "b": {"format": "native", "text": "any -> accept\n"}}`
	req := httptest.NewRequest(http.MethodPost, "/v1/diff", strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var dr DiffResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &dr); err != nil || !dr.Equivalent {
		t.Fatalf("diff = %+v, %v", dr, err)
	}

	raw, err := json.Marshal(DiffRequest{Schema: "five", A: in("any -> accept\n"), B: in("any -> accept\n")})
	if err != nil {
		t.Fatal(err)
	}
	var wire map[string]json.RawMessage
	if err := json.Unmarshal(raw, &wire); err != nil {
		t.Fatal(err)
	}
	if a := wire["a"]; len(a) == 0 || a[0] != '"' {
		t.Fatalf("native PolicyInput should marshal to a bare JSON string, got %s", raw)
	}
}

// TestUnsupportedFormatCode pins the stable error code for unknown
// format names, and its 400 status.
func TestUnsupportedFormatCode(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	defer srv.Close()
	for _, path := range []string{"/v1/diff", "/v1/analyze", "/v1/audit"} {
		body := `{"schema": "five", "a": {"format": "cisco-asa", "text": ""}, "b": "any -> accept\n"}`
		if path != "/v1/diff" {
			body = `{"schema": "five", "policy": {"format": "cisco-asa", "text": ""}}`
		}
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s status = %d", path, rec.Code)
		}
		var env Error
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatal(err)
		}
		if env.Err.Code != CodeUnsupportedFormat {
			t.Fatalf("%s code = %q, want %q", path, env.Err.Code, CodeUnsupportedFormat)
		}
		if !strings.Contains(env.Err.Message, "nftables") {
			t.Fatalf("%s message should list supported formats: %q", path, env.Err.Message)
		}
	}
}

// TestParseDiagnosticsInEnvelope pins that frontend parse failures
// carry positioned diagnostics in the error envelope.
func TestParseDiagnosticsInEnvelope(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	defer srv.Close()
	bad := "table ip t {\n    chain c {\n        frob 7 accept\n    }\n}\n"
	var rec *httptest.ResponseRecorder
	{
		raw, _ := json.Marshal(AnalyzeRequest{Schema: "five",
			Policy: PolicyInput{Format: "nftables", Text: bad}})
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(string(raw)))
		rec = httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
	}
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d", rec.Code)
	}
	var env Error
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Err.Code != CodeUnparseablePolicy {
		t.Fatalf("code = %q, want %q", env.Err.Code, CodeUnparseablePolicy)
	}
	if len(env.Err.Diagnostics) != 1 || env.Err.Diagnostics[0].Line != 3 || env.Err.Diagnostics[0].Col != 9 {
		t.Fatalf("diagnostics = %+v, want one at 3:9", env.Err.Diagnostics)
	}
}

// TestFormatsAdvertised pins the format list in /v1/version and the new
// formats field in /healthz.
func TestFormatsAdvertised(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	defer srv.Close()
	wantFormats := "native,iptables,nftables,secgroup"
	get := func(path string) []byte {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d", path, rec.Code)
		}
		return rec.Body.Bytes()
	}
	var ver VersionResponse
	if err := json.Unmarshal(get("/v1/version"), &ver); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(ver.Formats, ","); got != wantFormats {
		t.Fatalf("/v1/version formats = %q, want %q", got, wantFormats)
	}
	var health HealthResponse
	if err := json.Unmarshal(get("/healthz"), &health); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(health.Formats, ","); got != wantFormats {
		t.Fatalf("/healthz formats = %q, want %q", got, wantFormats)
	}
}

// TestPolicyInputStrictObject pins that unknown keys inside the object
// form are rejected even though the outer decoder cannot see them.
func TestPolicyInputStrictObject(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	defer srv.Close()
	body := `{"schema": "five", "policy": {"format": "native", "text": "any -> accept\n", "zork": 1}}`
	req := httptest.NewRequest(http.MethodPost, "/v1/audit", strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 for unknown PolicyInput key", rec.Code)
	}
}

// TestChainSelectionOverWire pins the chain option end to end: the same
// nftables ruleset answers differently per selected chain.
func TestChainSelectionOverWire(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	defer srv.Close()
	nft := `table inet filter {
    chain input {
        type filter hook input priority 0; policy drop;
        tcp dport 22 accept
    }
    chain forward {
        type filter hook forward priority 0; policy accept;
    }
}
`
	var resp AnalyzeResponse
	if code := do(t, srv, "/v1/analyze", AnalyzeRequest{Schema: "five",
		Policy: PolicyInput{Format: "nftables", Text: nft, Chain: "forward"}}, &resp); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if resp.Complexity.Rules != 1 {
		t.Fatalf("forward chain lowered to %d rules, want 1", resp.Complexity.Rules)
	}
}
