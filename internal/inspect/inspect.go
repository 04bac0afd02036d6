// Package inspect is the client-side plumbing of comet-top, the one
// observability CLI (the live cockpit, and span trees with -trace):
// base-URL normalization, a JSON GET that surfaces the server's error
// envelope, duration formatting, and unicode sparklines for history
// series.
//
// It is deliberately tiny and stdlib-only, and the server never imports
// it.
package inspect

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"
)

// NormalizeBase turns a user-supplied server address into a base URL:
// trailing slashes dropped, "http://" assumed when no scheme is given
// (comet-serve is plain HTTP; anything fronting it with TLS can be
// named explicitly).
func NormalizeBase(addr string) string {
	base := strings.TrimSuffix(strings.TrimSpace(addr), "/")
	if base != "" && !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return base
}

// Client fetches JSON debug views from comet-serve processes.
type Client struct {
	HTTP *http.Client
}

// NewClient returns a Client with the given timeout (0 means 15s).
func NewClient(timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = 15 * time.Second
	}
	return &Client{HTTP: &http.Client{Timeout: timeout}}
}

// GetJSON fetches url and decodes the JSON body into v. On a non-200 it
// decodes the server's {"error": "..."} envelope when present, so the
// user sees the server's own message ("tracing is disabled ...") rather
// than a bare status line.
func (c *Client) GetJSON(url string, v any) error {
	resp, err := c.HTTP.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// FormatUS renders a microsecond duration the way the dashboards do:
// µs below a millisecond, one-decimal ms below a second, seconds above.
func FormatUS(us int64) string {
	d := time.Duration(us) * time.Microsecond
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%dµs", us)
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(us)/1000)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// sparkLevels are the eight block-element heights of a sparkline cell.
var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as one unicode cell per point, scaled to the
// window's own max (a flat nonzero series renders low, not tall — the
// eye reads shape, not absolute height). NaN points (series gaps: idle
// ticks, pre-registration history) render as spaces. An all-gap or
// empty window is all spaces, width cells wide.
func Sparkline(values []float64, width int) string {
	if width <= 0 {
		width = len(values)
	}
	// Keep the newest points when the window is narrower than the data.
	if len(values) > width {
		values = values[len(values)-width:]
	}
	max := 0.0
	for _, v := range values {
		if !math.IsNaN(v) && v > max {
			max = v
		}
	}
	var sb strings.Builder
	for i := 0; i < width-len(values); i++ {
		sb.WriteByte(' ')
	}
	for _, v := range values {
		switch {
		case math.IsNaN(v):
			sb.WriteByte(' ')
		case max == 0:
			sb.WriteRune(sparkLevels[0])
		default:
			idx := int(v / max * float64(len(sparkLevels)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(sparkLevels) {
				idx = len(sparkLevels) - 1
			}
			sb.WriteRune(sparkLevels[idx])
		}
	}
	return sb.String()
}
