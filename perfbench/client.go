package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/service"
)

// pageSize is the limit every hunt request asks for.
const pageSize = 100

// client is one load-generating connection: its transport keeps at most
// one connection to the server.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a 200 JSON answer into out.
func (c *client) do(method, path, ctype string, body []byte, out any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decoding answer: %w", method, path, err)
	}
	return nil
}

// hunt POSTs a TBQL query and returns its first page.
func (c *client) hunt(query string, noCursor bool) (*service.HuntResponse, error) {
	body, err := json.Marshal(service.HuntRequest{Query: query, Limit: pageSize, NoCursor: noCursor})
	if err != nil {
		return nil, err
	}
	var resp service.HuntResponse
	return &resp, c.do(http.MethodPost, "/hunt", "application/json", body, &resp)
}

// next reads the following page of a server-side cursor.
func (c *client) next(cursor string) (*service.HuntResponse, error) {
	var resp service.HuntResponse
	path := "/hunt/next?cursor=" + url.QueryEscape(cursor) + "&limit=" + strconv.Itoa(pageSize)
	return &resp, c.do(http.MethodGet, path, "", nil, &resp)
}

// closeCursor releases a server-side cursor.
func (c *client) closeCursor(cursor string) error {
	return c.do(http.MethodDelete, "/hunt/cursor?cursor="+url.QueryEscape(cursor), "", nil, nil)
}

func (c *client) stats() (*service.StatsResponse, error) {
	var resp service.StatsResponse
	return &resp, c.do(http.MethodGet, "/stats", "", nil, &resp)
}
