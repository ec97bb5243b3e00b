package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"weak"

	"netcut/internal/zoo"
)

// jsonDecodeRequest is the reference the request decoder is held to:
// encoding/json's Decoder on PlanRequestWire, with trailing data after
// the value a malformed request, exactly as the gateway decoded bodies
// before it had its own decoder.
func jsonDecodeRequest(data []byte) (PlanRequestWire, error) {
	var wire PlanRequestWire
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&wire); err != nil {
		return wire, err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return wire, errors.New("trailing data after request body")
	}
	return wire, nil
}

// checkDecodeMatchesJSON asserts that the request decoder and the
// encoding/json reference agree on data: both accept it with
// reflect.DeepEqual wire structs, or both reject it; and decodeRequest
// answers with the status and error code the reference path would.
func checkDecodeMatchesJSON(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := jsonDecodeRequest(data)
	var got PlanRequestWire
	gotErr := new(wireDecoder).decode(data, &got)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("body %q: decoder error %v, encoding/json error %v", data, gotErr, wantErr)
	}
	if wantErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q: decoded\n%#v\nencoding/json\n%#v", data, got, want)
	}

	wantStatus, wantCode := http.StatusBadRequest, "invalid_json"
	var wantReq *decodedRequest
	if wantErr == nil {
		var aerr *apiError
		if wantReq, aerr = requestFromWire(&want); aerr != nil {
			wantStatus, wantCode = aerr.status, aerr.wire.Code
		}
	}
	gotReq, aerr := decodeRequest(bytes.NewReader(data))
	switch {
	case aerr != nil && wantReq == nil:
		if aerr.status != wantStatus || aerr.wire.Code != wantCode {
			t.Fatalf("body %q: rejected %d %s, encoding/json path %d %s", data, aerr.status, aerr.wire.Code, wantStatus, wantCode)
		}
	case aerr != nil:
		t.Fatalf("body %q: rejected %d %s, encoding/json path accepts", data, aerr.status, aerr.wire.Code)
	case wantReq == nil:
		t.Fatalf("body %q: accepted, encoding/json path rejects %d %s", data, wantStatus, wantCode)
	case gotReq.key != wantReq.key || gotReq.target != wantReq.target ||
		gotReq.budgetMs != wantReq.budgetMs || gotReq.allowDegraded != wantReq.allowDegraded:
		t.Fatalf("body %q: decoded request %+v, encoding/json path %+v", data, gotReq, wantReq)
	}
}

// decodeQuirks are the corners of encoding/json's behavior the request
// decoder reproduces, each with whether the reference accepts it.
var decodeQuirks = []struct {
	name   string
	body   string
	accept bool
}{
	// Key matching: case folding, the non-ASCII runes that fold to
	// ASCII letters, escapes inside keys.
	{"fold-ascii", `{"NETWORK":"ResNet-50","TaRgEt":"auto","Deadline_MS":0.5}`, true},
	{"fold-long-s", `{"graph":{"name":"g","nodes":[{"id":0,"kind":"Input","ſtride":2,"pad":"ſame"}]}}`, true},
	{"fold-kelvin", `{"graph":{"name":"g","nodes":[{"id":0,"Kh":3,"Kw":5}]}}`, true},
	{"key-escapes", `{"\u006eetwork":"ResNet-50","t\u0061rget":"auto","deadline\u005fms":1,"net\/work":"x"}`, true},
	{"key-escaped-fold", `{"\u017ftride":1,"graph":{"name":"g","nodes":[{"\u017ftride":4,"\u212Ah":2,"\u212a\u0057":1}]}}`, true},
	{"key-invalid-utf8", "{\"netw\xffork\":\"x\",\"network\":\"ResNet-50\"}", true},
	{"key-near-miss", `{"networks":"x","network ":"y","network":"ResNet-50"}`, true},
	{"key-long", `{"` + strings.Repeat("n", 40) + `":1,"network":"ResNet-50"}`, true},
	{"key-long-folded", `{"graph":{"num_claſſeſ":3,"nodes":[{"weight_byteſ":1,"ſtrideſ":2,"ſſſſſſſſſſſſſſſſſ":1}]}}`, true},

	// Unknown keys are skipped whatever their value, at any level.
	{"unknown-values", `{"x":{"a":[1,{"b":null},"c",true,false,-1.5e3,[]],"c":"d","e":{}},"y":[],"z":-0,"network":"ResNet-50"}`, true},
	{"unknown-in-graph", `{"graph":{"name":"g","extra":[[[]]],"nodes":[{"id":0,"extra":{"k":[1,2]}}],"blocks":[{"x":null}]}}`, true},
	{"unknown-bad-syntax", `{"x":[1,2,],"network":"ResNet-50"}`, false},
	{"unknown-bad-number", `{"x":01,"network":"ResNet-50"}`, false},

	// null on every field kind, and as the whole body.
	{"null-top-fields", `{"network":null,"graph":null,"target":null,"deadline_ms":null,"estimator":null,"budget_ms":null,"allow_degraded":null}`, true},
	{"null-graph-fields", `{"graph":{"name":null,"input":null,"num_classes":null,"nodes":null,"blocks":null}}`, true},
	{"null-node-fields", `{"graph":{"name":"g","nodes":[{"id":null,"name":null,"kind":null,"inputs":null,"in":null,"out":null,"kh":null,"kw":null,"stride":null,"pad":null,"macs":null,"params":null,"weight_bytes":null,"io_bytes":null,"block":null,"head":null},null]}}`, true},
	{"null-elements", `{"graph":{"name":"g","input":{"h":null},"nodes":[{"inputs":[1,null,2],"in":{"c":null}}],"blocks":[null,{"index":null,"label":null,"nodes":[null],"output":null}]}}`, true},
	{"null-overrides", `{"network":"x","network":null,"graph":{"name":"g"},"graph":null}`, true},
	{"null-body", `null`, true},
	{"null-body-space", " \r\n\tnull \n", true},

	// A repeated key decodes into what is already there.
	{"dup-string", `{"network":"VGG","network":"ResNet-50"}`, true},
	{"dup-graph-merge", `{"graph":{"name":"a","nodes":[{"id":1,"name":"x","in":{"h":1}}]},"graph":{"num_classes":3,"nodes":[{"id":2,"in":{"w":2}}]}}`, true},
	{"dup-ptr-null", `{"graph":{"name":"g","nodes":[{"block":1,"block":null,"in":{"h":1},"in":null,"in":{"w":2}}]}}`, true},
	{"dup-stale-capacity", `{"graph":{"nodes":[{"name":"a"},{"name":"b"},{"name":"c"}],"nodes":[{}],"nodes":[{},{},{},{"name":"d"}]}}`, true},
	{"dup-stale-ints", `{"graph":{"blocks":[{"nodes":[1,2,3]}],"blocks":[{"nodes":[4]}],"blocks":[{"nodes":[5,null,null,null]}]}}`, true},
	{"dup-empty-resets", `{"graph":{"nodes":[{"name":"a"},{"name":"b"}],"nodes":[],"nodes":[{},{}]}}`, true},

	// Empty arrays decode to non-nil empty slices.
	{"empty-arrays", `{"graph":{"name":"g","nodes":[{"inputs":[]}],"blocks":[{"nodes":[]}]}}`, true},
	{"empty-nodes", `{"graph":{"name":"g","nodes":[],"blocks":[]}}`, true},

	// String escapes, surrogates and invalid UTF-8.
	{"str-escapes", `{"target":"\"\\\/\b\f\n\r\t\u0000é€"}`, true},
	{"str-escaped-name", `{"network":"Res\u004eet\u002d50"}`, true},
	{"str-surrogate-pair", `{"target":"\ud83d\ude00x\uD83D\uDE00"}`, true},
	{"str-lone-high", `{"target":"\ud800"}`, true},
	{"str-lone-low", `{"target":"\udc00\udc00"}`, true},
	{"str-high-then-bmp", `{"target":"\ud800A"}`, true},
	{"str-high-high-low", `{"target":"\ud800\ud800\udc00"}`, true},
	{"str-high-then-text", `{"target":"\ud800abcdef"}`, true},
	{"str-invalid-utf8", "{\"target\":\"a\xffb\xed\xa0\x80c\xc3\"}", true},
	{"str-invalid-and-escape", "{\"target\":\"\xff\\n\xe2\x82\"}", true},
	{"str-valid-utf8", "{\"target\":\"日本\xe2\x82\xac\xef\xbf\xbd\"}", true},
	{"str-control", "{\"target\":\"a\x01\"}", false},
	{"str-bad-escape", `{"target":"\q"}`, false},
	{"str-short-unicode", `{"target":"\u12"}`, false},
	{"str-unterminated", `{"target":"abc`, false},

	// The int grammar and float range.
	{"int-zero-neg", `{"graph":{"num_classes":-0}}`, true},
	{"int-max", `{"graph":{"nodes":[{"macs":9223372036854775807,"params":-9223372036854775808}]}}`, true},
	{"int-overflow", `{"graph":{"nodes":[{"macs":9223372036854775808}]}}`, false},
	{"int-underflow", `{"graph":{"nodes":[{"macs":-9223372036854775809}]}}`, false},
	{"int-long", `{"graph":{"num_classes":123456789012345678901234567890}}`, false},
	{"int-fraction", `{"graph":{"num_classes":1.0}}`, false},
	{"int-exponent", `{"graph":{"num_classes":1e2}}`, false},
	{"int-in-block", `{"graph":{"nodes":[{"block":2E0}]}}`, false},
	{"float-forms", `{"deadline_ms":2.5E-3,"budget_ms":-0.0}`, true},
	{"float-underflow", `{"deadline_ms":1e-400}`, true},
	{"float-overflow", `{"deadline_ms":1e400}`, false},
	{"float-neg-overflow", `{"budget_ms":-1.8e308}`, false},

	// Type mismatches.
	{"type-network", `{"network":1}`, false},
	{"type-graph-array", `{"graph":[]}`, false},
	{"type-graph-string", `{"graph":"x"}`, false},
	{"type-deadline", `{"deadline_ms":"1"}`, false},
	{"type-bool", `{"allow_degraded":1}`, false},
	{"type-bool-string", `{"allow_degraded":"true"}`, false},
	{"type-nodes", `{"graph":{"nodes":{}}}`, false},
	{"type-node", `{"graph":{"nodes":[1]}}`, false},
	{"type-shape", `{"graph":{"input":[]}}`, false},
	{"type-inputs", `{"graph":{"nodes":[{"inputs":[true]}]}}`, false},
	{"type-top-array", `[]`, false},
	{"type-top-string", `"x"`, false},
	{"type-top-number", `1`, false},
	{"type-top-bool", `true`, false},

	// Syntax.
	{"syntax-trailing-comma", `{"network":"ResNet-50",}`, false},
	{"syntax-lone-comma", `{,}`, false},
	{"syntax-no-colon", `{"network" "x"}`, false},
	{"syntax-leading-zero", `{"deadline_ms":01}`, false},
	{"syntax-bare-minus", `{"deadline_ms":-}`, false},
	{"syntax-dot", `{"deadline_ms":1.}`, false},
	{"syntax-leading-dot", `{"deadline_ms":.5}`, false},
	{"syntax-plus", `{"deadline_ms":+1}`, false},
	{"syntax-literal", `{"allow_degraded":tru}`, false},
	{"syntax-literal-suffix", `{"allow_degraded":truex}`, false},
	{"syntax-bom", "\xef\xbb\xbf{}", false},
	{"syntax-unclosed", `{"network":"ResNet-50"`, false},
	{"syntax-single-quote", `{'network':'x'}`, false},
	{"empty", ``, false},
	{"whitespace", " \n\t\r ", false},

	// Trailing data: whitespace only.
	{"trailing-space", "{\"network\":\"ResNet-50\"} \t\r\n", true},
	{"trailing-garbage", `{"network":"ResNet-50"}x`, false},
	{"trailing-value", `{"network":"ResNet-50"}{}`, false},
	{"trailing-null", `{} null`, false},
	{"trailing-nul-byte", "{}\x00", false},

	// The nesting limit: 10000 open objects and arrays, counting the
	// request object itself.
	{"depth-limit", `{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`, true},
	{"depth-over", `{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`, false},
	{"depth-over-objects", `{"x":` + strings.Repeat(`{"a":`, 10000) + `1` + strings.Repeat("}", 10000) + `}`, false},
}

// TestDecodeRequestMatchesJSON pins each quirk of encoding/json's
// PlanRequestWire decoding on the request decoder.
func TestDecodeRequestMatchesJSON(t *testing.T) {
	for _, q := range decodeQuirks {
		t.Run(q.name, func(t *testing.T) {
			if _, err := jsonDecodeRequest([]byte(q.body)); (err == nil) != q.accept {
				t.Fatalf("encoding/json accepts=%v, table says %v (err %v)", err == nil, q.accept, err)
			}
			checkDecodeMatchesJSON(t, []byte(q.body))
		})
	}
	t.Run("zoo-graph", func(t *testing.T) {
		checkDecodeMatchesJSON(t, zooGraphBody(t))
	})
}

// TestDecoderKeepsNoRequestData checks that a decoder reset for the
// pool holds nothing of the requests it decoded: neither an accepted
// body's wire graph nor the partial elements a rejected body left in
// its scratch. A decoder in steady use is never freed by the pool, so
// whatever it held would stay live, up to MaxBodyBytes of wire values
// per request.
func TestDecoderKeepsNoRequestData(t *testing.T) {
	d := new(wireDecoder)
	var w PlanRequestWire
	if aerr := d.decodeBody(bytes.NewReader(zooGraphBody(t)), &w); aerr != nil {
		t.Fatal(aerr.wire.Error)
	}
	d.reset()
	if len(w.Graph.Nodes) < 2 || len(w.Graph.Blocks) < 2 {
		t.Fatalf("zoo body decoded %d nodes, %d blocks", len(w.Graph.Nodes), len(w.Graph.Blocks))
	}
	graphRef := weak.Make(w.Graph)
	nodesRef := weak.Make(&w.Graph.Nodes[0])
	blocksRef := weak.Make(&w.Graph.Blocks[0])
	w = PlanRequestWire{}
	runtime.GC()
	if graphRef.Value() != nil || nodesRef.Value() != nil || blocksRef.Value() != nil {
		t.Fatal("the reset decoder still reaches the accepted request's wire graph")
	}

	// Rejected bodies fail past their first elements, fewer than the
	// accepted body grew the scratch to.
	for _, body := range []string{
		`{"graph":{"nodes":[{"name":"a","inputs":[1]},{"name":"b"},{"id":1.5}]}}`,
		`{"graph":{"blocks":[{"label":"a","nodes":[1]},{"label":"b"},{"index":1.5}]}}`,
	} {
		if aerr := d.decodeBody(strings.NewReader(body), new(PlanRequestWire)); aerr == nil {
			t.Fatalf("body %s accepted", body)
		}
		d.reset()
		for i, n := range d.nodes[:cap(d.nodes)] {
			if !reflect.ValueOf(n).IsZero() {
				t.Fatalf("body %s: node scratch %d holds %+v", body, i, n)
			}
		}
		for i, b := range d.blocks[:cap(d.blocks)] {
			if !reflect.ValueOf(b).IsZero() {
				t.Fatalf("body %s: block scratch %d holds %+v", body, i, b)
			}
		}
	}
	runtime.KeepAlive(d)
}

// zooGraphBody is a POST /v1/plan body carrying an encoded zoo network
// (SqueezeNet-1.1: 90 nodes, the size of a cold-graphs request).
func zooGraphBody(tb testing.TB) []byte {
	gw, err := json.Marshal(EncodeGraph(zoo.SqueezeNet11()))
	if err != nil {
		tb.Fatal(err)
	}
	return []byte(`{"graph":` + string(gw) + `,"deadline_ms":0.35,"target":"auto"}`)
}

// FuzzDecodeRequestMatchesJSON is the request decoder's differential
// fuzz target: on every input it must agree with encoding/json on
// acceptance, produce a reflect.DeepEqual PlanRequestWire when both
// accept, and give the same status and code when they reject.
func FuzzDecodeRequestMatchesJSON(f *testing.F) {
	for _, q := range decodeQuirks {
		f.Add([]byte(q.body))
	}
	f.Add(zooGraphBody(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeMatchesJSON(t, data)
	})
}

// BenchmarkDecodeRequest measures the decode layer of POST /v1/plan:
// body read, parse and graph validation, for a zoo shorthand and for a
// 90-node encoded graph (a cold-graphs request).
func BenchmarkDecodeRequest(b *testing.B) {
	for _, bc := range []struct {
		name string
		body []byte
	}{
		{"network", []byte(`{"network":"ResNet-50","deadline_ms":0.9,"estimator":"analytical"}`)},
		{"graph", zooGraphBody(b)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.body)))
			r := bytes.NewReader(nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Reset(bc.body)
				if _, aerr := decodeRequest(r); aerr != nil {
					b.Fatal(aerr.wire.Error)
				}
			}
		})
	}
}
