package nets

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// refParseHTTPRequest and refParseHTTPResponse are the parsers the head
// walk replaced — string(payload), a bufio.Scanner and a string per
// line — kept as the reference it must match: the same result and the
// same error on every input up to 64 KiB. (Above that a line can exceed
// the Scanner's token limit, which the walk does not have.)
func refParseHTTPRequest(payload []byte) (HTTPRequestInfo, error) {
	text := string(payload)
	endOfHeaders := strings.Index(text, "\r\n\r\n")
	if endOfHeaders < 0 {
		return HTTPRequestInfo{}, fmt.Errorf("nets: payload has no HTTP header terminator")
	}
	sc := bufio.NewScanner(strings.NewReader(text[:endOfHeaders]))
	if !sc.Scan() {
		return HTTPRequestInfo{}, fmt.Errorf("nets: empty HTTP payload")
	}
	requestLine := sc.Text()
	parts := strings.SplitN(requestLine, " ", 3)
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/") {
		return HTTPRequestInfo{}, fmt.Errorf("nets: malformed request line %q", requestLine)
	}
	info := HTTPRequestInfo{Method: parts[0], Path: parts[1]}
	for sc.Scan() {
		line := sc.Text()
		colon := strings.IndexByte(line, ':')
		if colon < 0 {
			continue
		}
		key := strings.ToLower(strings.TrimSpace(line[:colon]))
		val := strings.TrimSpace(line[colon+1:])
		switch key {
		case "host":
			info.Host = val
		case "user-agent":
			info.UserAgent = val
		}
	}
	if err := sc.Err(); err != nil {
		return HTTPRequestInfo{}, fmt.Errorf("nets: scanning HTTP headers: %w", err)
	}
	if info.Host == "" {
		return HTTPRequestInfo{}, fmt.Errorf("nets: HTTP request lacks Host header")
	}
	return info, nil
}

func refParseHTTPResponse(payload []byte) (HTTPResponseInfo, error) {
	text := string(payload)
	endOfHeaders := strings.Index(text, "\r\n\r\n")
	if endOfHeaders < 0 {
		return HTTPResponseInfo{}, fmt.Errorf("nets: payload has no HTTP header terminator")
	}
	sc := bufio.NewScanner(strings.NewReader(text[:endOfHeaders]))
	if !sc.Scan() {
		return HTTPResponseInfo{}, fmt.Errorf("nets: empty HTTP response")
	}
	statusLine := sc.Text()
	parts := strings.SplitN(statusLine, " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/") {
		return HTTPResponseInfo{}, fmt.Errorf("nets: malformed status line %q", statusLine)
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil {
		return HTTPResponseInfo{}, fmt.Errorf("nets: bad status code in %q: %w", statusLine, err)
	}
	info := HTTPResponseInfo{StatusCode: code}
	for sc.Scan() {
		line := sc.Text()
		colon := strings.IndexByte(line, ':')
		if colon < 0 {
			continue
		}
		key := strings.ToLower(strings.TrimSpace(line[:colon]))
		val := strings.TrimSpace(line[colon+1:])
		switch key {
		case "content-type":
			info.ContentType = val
		case "content-length":
			if n, err := strconv.ParseInt(val, 10, 64); err == nil {
				info.ContentLength = n
			}
		}
	}
	if err := sc.Err(); err != nil {
		return HTTPResponseInfo{}, fmt.Errorf("nets: scanning response headers: %w", err)
	}
	return info, nil
}

// refBuildHTTPRequest and refBuildHTTPResponseHeader are the fmt-based
// builders the append-based ones replaced.
func refBuildHTTPRequest(method, host, path, userAgent string, extraHeaders map[string]string, bodyLen int) []byte {
	if method == "" {
		method = http.MethodGet
	}
	if path == "" {
		path = "/"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\n", method, path)
	fmt.Fprintf(&b, "Host: %s\r\n", host)
	if userAgent != "" {
		fmt.Fprintf(&b, "User-Agent: %s\r\n", userAgent)
	}
	fmt.Fprintf(&b, "Accept: */*\r\nConnection: keep-alive\r\n")
	if bodyLen > 0 {
		fmt.Fprintf(&b, "Content-Length: %d\r\n", bodyLen)
	}
	for k, v := range extraHeaders {
		fmt.Fprintf(&b, "%s: %s\r\n", k, v)
	}
	b.WriteString("\r\n")
	for i := 0; i < bodyLen; i++ {
		b.WriteByte(byte('0' + i%10))
	}
	return []byte(b.String())
}

func refBuildHTTPResponseHeader(contentType string, contentLength int64) []byte {
	if contentType == "" {
		contentType = "application/octet-stream"
	}
	return []byte(fmt.Sprintf(
		"HTTP/1.1 200 OK\r\nServer: nginx\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: keep-alive\r\n\r\n",
		contentType, contentLength))
}

// httpHeads is the table both parsers must agree on, and the seed corpus
// of FuzzHTTPHead.
var httpHeads = []string{
	"",
	"\r\n\r\n",
	"\x16\x03\x01 tls stuff",
	"GET / HTTP/1.1\r\nHost: a.com\r\n\r\n",
	"GET /\r\n\r\n",
	"GET / HTTP/1.1\r\nNoHost: x\r\n\r\n",
	"GET / HTTP/1.1\r\nHost:\r\n\r\n",
	"GET  HTTP/1.1\r\nhOsT: \t a.com \r\nUSER-AGENT:x:y\r\n\r\nbody",
	"GET / HTTP/1.1\nHost: a\nHost: b\r\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: a\n\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: a\r\nUser-Agent:  ua\u0085\r\n\r\n",
	"GET / HTTP/1.1\r\nİHost: a\r\nHoſt: b\r\nHost : c\r\n\r\n",
	"GET / HTTP/1.1\r\n\xffHost: a\r\nHost\xff: b\r\nHost: \xff\r\n\r\n",
	"\nGET / HTTP/1.1\r\nHost: a\r\n\r\n",
	"GET a b HTTP/1.1\r\nHost: a\r\n\r\n",
	"GET / HTTPS/1.1\r\nHost: a\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 42\r\n\r\n",
	"HTTP/1.1 200\r\n\r\n",
	"HTTP/1.1\r\n\r\n",
	"HTTP/1.1  200 OK\r\n\r\n",
	"HTTP/1.1 abc OK\r\n\r\n",
	"HTTP/1.1 +200 OK\r\n\r\n",
	"HTTP/1.1 -1 OK\r\n\r\n",
	"HTTP/1.1 007 OK\r\n\r\n",
	"HTTP/1.1 99999999999999999999 OK\r\n\r\n",
	"HTTP/1.1 999999999999999999 OK\r\n\r\n",
	"NOTHTTP 200 OK\r\n\r\n",
	"HTTP/1.1 200 OK\r\ncontent-length: 7\r\nContent-Length: x\r\nCONTENT-TYPE:  a/b \r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Length: +12\r\nContent-Length: 0x10\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Length: 9223372036854775808\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Length: 1_000\r\nContent-Type\r\n\r\n",
}

func checkHTTPHead(t *testing.T, payload []byte) {
	t.Helper()
	req, err := ParseHTTPRequest(payload)
	wantReq, wantErr := refParseHTTPRequest(payload)
	if req != wantReq || fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("ParseHTTPRequest(%q) = %+v, %v; reference %+v, %v", payload, req, err, wantReq, wantErr)
	}
	resp, err := ParseHTTPResponse(payload)
	wantResp, wantErr := refParseHTTPResponse(payload)
	if resp != wantResp || fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("ParseHTTPResponse(%q) = %+v, %v; reference %+v, %v", payload, resp, err, wantResp, wantErr)
	}
}

func TestHTTPHeadMatchesReference(t *testing.T) {
	for _, head := range httpHeads {
		checkHTTPHead(t, []byte(head))
	}
	for _, payload := range [][]byte{
		BuildHTTPRequest("POST", "x.com", "/up", DefaultUserAgent, map[string]string{"X-Req": "1"}, 64),
		BuildHTTPResponseHeader("image/webp", 120000),
		// A long line, just inside the reference Scanner's token limit.
		append([]byte("GET / HTTP/1.1\r\nHost: "+strings.Repeat("h", 60<<10)), "\r\n\r\n"...),
	} {
		checkHTTPHead(t, payload)
	}
}

// FuzzHTTPHead holds both head parsers to their references on every
// input up to 64 KiB.
func FuzzHTTPHead(f *testing.F) {
	for _, head := range httpHeads {
		f.Add([]byte(head))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > 64<<10 {
			return
		}
		checkHTTPHead(t, payload)
	})
}

// The builders write what the fmt-based ones wrote.
func TestHTTPBuildersMatchReference(t *testing.T) {
	for _, tc := range []struct {
		method, host, path, ua string
		extra                  map[string]string
		body                   int
	}{
		{"GET", "ads.example.com", "/fetch", "Vungle/6.2", map[string]string{"X-Req": "1"}, 0},
		{"POST", "x.com", "/up", DefaultUserAgent, nil, 128},
		{"", "h.com", "", "", nil, 0},
		{"PUT", "h.com", "/%d", "%s", nil, 1},
	} {
		got := BuildHTTPRequest(tc.method, tc.host, tc.path, tc.ua, tc.extra, tc.body)
		if want := refBuildHTTPRequest(tc.method, tc.host, tc.path, tc.ua, tc.extra, tc.body); !bytes.Equal(got, want) {
			t.Errorf("BuildHTTPRequest = %q, reference %q", got, want)
		}
	}
	for _, ct := range []string{"", "image/webp", "text/html; charset=utf-8"} {
		for _, n := range []int64{0, 5, 120000, -1} {
			if got, want := BuildHTTPResponseHeader(ct, n), refBuildHTTPResponseHeader(ct, n); !bytes.Equal(got, want) {
				t.Errorf("BuildHTTPResponseHeader = %q, reference %q", got, want)
			}
		}
	}
}

// The head walk allocates only the strings it returns: method, path,
// host and user agent of a request; the content type of a response.
func TestParseHTTPHeadAllocatesOnlyResults(t *testing.T) {
	req := BuildHTTPRequest("GET", "ads.example.com", "/fetch", DefaultUserAgent, nil, 0)
	resp := BuildHTTPResponseHeader("image/webp", 120000)
	var err error
	if allocs := testing.AllocsPerRun(100, func() { _, err = ParseHTTPRequest(req) }); allocs != 4 || err != nil {
		t.Errorf("ParseHTTPRequest allocates %.1f objects (err %v), want 4", allocs, err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, err = ParseHTTPResponse(resp) }); allocs != 1 || err != nil {
		t.Errorf("ParseHTTPResponse allocates %.1f objects (err %v), want 1", allocs, err)
	}
}
