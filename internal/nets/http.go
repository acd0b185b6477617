package nets

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
)

// BuildHTTPRequest renders an HTTP/1.1 request payload with the headers the
// network-only baselines inspect: Host (Tongaonkar et al. hostname
// classification) and User-Agent (Xue et al. / Maier et al.).
func BuildHTTPRequest(method, host, path, userAgent string, extraHeaders map[string]string, bodyLen int) []byte {
	return AppendHTTPRequest(make([]byte, 0, 256+bodyLen), method, host, path, userAgent, extraHeaders, bodyLen)
}

// AppendHTTPRequest appends the payload BuildHTTPRequest renders to dst.
func AppendHTTPRequest(dst []byte, method, host, path, userAgent string, extraHeaders map[string]string, bodyLen int) []byte {
	if method == "" {
		method = http.MethodGet
	}
	if path == "" {
		path = "/"
	}
	b := append(dst, method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, host...)
	b = append(b, "\r\n"...)
	if userAgent != "" {
		b = append(b, "User-Agent: "...)
		b = append(b, userAgent...)
		b = append(b, "\r\n"...)
	}
	b = append(b, "Accept: */*\r\nConnection: keep-alive\r\n"...)
	if bodyLen > 0 {
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(bodyLen), 10)
		b = append(b, "\r\n"...)
	}
	for k, v := range extraHeaders {
		b = append(b, k...)
		b = append(b, ": "...)
		b = append(b, v...)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	for i := 0; i < bodyLen; i++ {
		b = append(b, byte('0'+i%10))
	}
	return b
}

// HTTPRequestInfo is the header subset a purely network-focused analysis
// can extract from a request payload.
type HTTPRequestInfo struct {
	Method    string
	Path      string
	Host      string
	UserAgent string
}

// ParseHTTPRequest extracts baseline-relevant headers from the first
// request on a stream. It fails on payloads that do not look like HTTP —
// the baselines simply skip those flows. It walks the head in place and
// allocates only the strings it returns.
func ParseHTTPRequest(payload []byte) (HTTPRequestInfo, error) {
	h, ok := newHead(payload)
	if !ok {
		return HTTPRequestInfo{}, fmt.Errorf("nets: payload has no HTTP header terminator")
	}
	requestLine, ok := h.next()
	if !ok {
		return HTTPRequestInfo{}, fmt.Errorf("nets: empty HTTP payload")
	}
	method, rest, ok1 := bytes.Cut(requestLine, []byte(" "))
	path, version, ok2 := bytes.Cut(rest, []byte(" "))
	if !ok1 || !ok2 || !bytes.HasPrefix(version, []byte("HTTP/")) {
		return HTTPRequestInfo{}, fmt.Errorf("nets: malformed request line %q", requestLine)
	}
	var host, userAgent []byte
	for {
		key, val, ok := h.header()
		if !ok {
			break
		}
		switch {
		case lowerEqual(key, "host"):
			host = val
		case lowerEqual(key, "user-agent"):
			userAgent = val
		}
	}
	if len(host) == 0 {
		return HTTPRequestInfo{}, fmt.Errorf("nets: HTTP request lacks Host header")
	}
	return HTTPRequestInfo{
		Method:    string(method),
		Path:      string(path),
		Host:      string(host),
		UserAgent: string(userAgent),
	}, nil
}

// DefaultUserAgent is the generic Dalvik User-Agent most HTTP stacks on the
// analysis image emit — the "generic identifiers in HTTP headers" that the
// paper argues make header-based attribution unreliable (§I).
const DefaultUserAgent = "Dalvik/2.1.0 (Linux; U; Android 7.1.1; sdk_google_phone_x86 Build/NMF26Q)"

// BuildHTTPResponseHeader renders the status line and headers a server
// sends ahead of its body. The Content-Type header is what content-based
// traffic classifiers (Vallina et al.) inspect.
func BuildHTTPResponseHeader(contentType string, contentLength int64) []byte {
	return AppendHTTPResponseHeader(make([]byte, 0, 128+len(contentType)), contentType, contentLength)
}

// AppendHTTPResponseHeader appends the header BuildHTTPResponseHeader
// renders to dst.
func AppendHTTPResponseHeader(dst []byte, contentType string, contentLength int64) []byte {
	if contentType == "" {
		contentType = "application/octet-stream"
	}
	b := append(dst, "HTTP/1.1 200 OK\r\nServer: nginx\r\nContent-Type: "...)
	b = append(b, contentType...)
	b = append(b, "\r\nContent-Length: "...)
	b = strconv.AppendInt(b, contentLength, 10)
	return append(b, "\r\nConnection: keep-alive\r\n\r\n"...)
}

// HTTPResponseInfo is the header subset readable from a response payload.
type HTTPResponseInfo struct {
	StatusCode    int
	ContentType   string
	ContentLength int64
}

// ParseHTTPResponse extracts baseline-relevant headers from the first
// server payload of a stream. Like ParseHTTPRequest it walks the head in
// place and allocates only the string it returns.
func ParseHTTPResponse(payload []byte) (HTTPResponseInfo, error) {
	h, ok := newHead(payload)
	if !ok {
		return HTTPResponseInfo{}, fmt.Errorf("nets: payload has no HTTP header terminator")
	}
	statusLine, ok := h.next()
	if !ok {
		return HTTPResponseInfo{}, fmt.Errorf("nets: empty HTTP response")
	}
	version, rest, ok := bytes.Cut(statusLine, []byte(" "))
	if !ok || !bytes.HasPrefix(version, []byte("HTTP/")) {
		return HTTPResponseInfo{}, fmt.Errorf("nets: malformed status line %q", statusLine)
	}
	codeField, _, _ := bytes.Cut(rest, []byte(" "))
	code, err := strconv.Atoi(string(codeField))
	if err != nil {
		return HTTPResponseInfo{}, fmt.Errorf("nets: bad status code in %q: %w", statusLine, err)
	}
	info := HTTPResponseInfo{StatusCode: code}
	var contentType []byte
	for {
		key, val, ok := h.header()
		if !ok {
			break
		}
		switch {
		case lowerEqual(key, "content-type"):
			contentType = val
		case lowerEqual(key, "content-length"):
			if n, err := strconv.ParseInt(string(val), 10, 64); err == nil {
				info.ContentLength = n
			}
		}
	}
	info.ContentType = string(contentType)
	return info, nil
}

// head walks the lines of an HTTP head — the payload up to its first
// blank line — in place. Lines split at '\n' with one trailing '\r'
// dropped, as bufio.ScanLines splits them; an empty last line is not a
// line. Unlike bufio.Scanner there is no line-length limit.
type head struct{ rest []byte }

// newHead starts a walk of payload's head, or reports that the payload
// has no header terminator.
func newHead(payload []byte) (head, bool) {
	end := bytes.Index(payload, []byte("\r\n\r\n"))
	if end < 0 {
		return head{}, false
	}
	return head{payload[:end]}, true
}

// next returns the next line.
func (h *head) next() ([]byte, bool) {
	if len(h.rest) == 0 {
		return nil, false
	}
	line, rest, _ := bytes.Cut(h.rest, []byte("\n"))
	h.rest = rest
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, true
}

// header returns the next line that has a colon, split there into a key
// and a value, each trimmed of surrounding white space.
func (h *head) header() (key, val []byte, ok bool) {
	for {
		line, ok := h.next()
		if !ok {
			return nil, nil, false
		}
		if k, v, found := bytes.Cut(line, []byte(":")); found {
			return bytes.TrimSpace(k), bytes.TrimSpace(v), true
		}
	}
}

// lowerEqual reports whether strings.ToLower(string(b)) == lower, for an
// ASCII lower with neither 'i' nor 'k' in it: only those two ASCII
// letters are the lower case of a non-ASCII rune (U+0130 and U+212A), so
// for such a target an ASCII case fold is exact.
func lowerEqual(b []byte, lower string) bool {
	if len(b) != len(lower) {
		return false
	}
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}
