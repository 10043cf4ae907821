package load

import (
	"bytes"
	"io"
	"net/http"
	"sync"
)

// Result counts the outcomes of one replay.
type Result struct {
	OK     int // 2xx
	Shed   int // 429
	Errors int // transport failures and every other status
}

// Runner replays a plan's measured requests against a base URL.
type Runner struct {
	Base string
}

// client keeps enough idle connections for every virtual client:
// http.DefaultClient caps idle conns per host at 2, which turns every
// client beyond the second into a fresh TCP dial per request.
var client = &http.Client{
	Transport: &http.Transport{
		MaxIdleConns:        1024,
		MaxIdleConnsPerHost: 1024,
	},
}

// Run replays the plan closed-loop: concurrency virtual clients each own
// the stride i % concurrency of the request sequence and issue it back to
// back.
func (r *Runner) Run(p *Plan, concurrency int) Result {
	status := make([]int, len(p.Requests)) // 0: transport failure
	var wg sync.WaitGroup
	for g := 0; g < concurrency; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(p.Requests); i += concurrency {
				status[i] = r.issue(&p.Requests[i])
			}
		}(g)
	}
	wg.Wait()
	var res Result
	for _, s := range status {
		switch {
		case s/100 == 2:
			res.OK++
		case s == http.StatusTooManyRequests:
			res.Shed++
		default:
			res.Errors++
		}
	}
	return res
}

// issue fires one request and returns its status code, 0 if it never got
// a response.
func (r *Runner) issue(rq *Request) int {
	var body io.Reader
	if rq.Body != nil {
		body = bytes.NewReader(rq.Body)
	}
	req, err := http.NewRequest(rq.Method, r.Base+rq.Path, body)
	if err != nil {
		return 0
	}
	if rq.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}
