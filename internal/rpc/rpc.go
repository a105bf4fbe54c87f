// Package rpc is a minimal request/response message layer over TCP, the
// stand-in for the paper's gRPC control plane (§5.5 "topology broadcast
// (using grpc)"). Frames are length-prefixed JSON; each request carries an
// id echoed by the response, so one connection multiplexes concurrent
// calls. Stdlib only.
//
// Shutdown is graceful: Server.Close stops accepting, lets every in-flight
// handler finish and flush its reply, answers requests that arrive during
// the drain with ErrServerClosed, and only then tears connections down.
// Client calls fail with typed errors — ErrClientClosed after a local
// Close, ErrServerClosed when the server refused the request during
// shutdown, ErrConnectionLost when the transport died mid-call,
// ErrOverloaded when the server shed the request — so callers can
// distinguish "retry" from "back off" from "stop".
//
// Deadlines propagate end to end: CallContext stamps the context's
// remaining budget on the request envelope, the server wraps the handler's
// context with it, and deadline failures come back wire-coded so the
// caller sees context.DeadlineExceeded rather than an opaque string.
package rpc

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"
)

// Typed call-failure errors; match with errors.Is.
var (
	// ErrClientClosed is returned by Call after the client's own Close, and
	// by calls pending when Close tears the connection down.
	ErrClientClosed = errors.New("rpc: client closed")
	// ErrServerClosed is returned for requests a shutting-down server
	// refused to dispatch.
	ErrServerClosed = errors.New("rpc: server closed")
	// ErrConnectionLost is returned when the transport died under a call
	// that had no reply yet, and by every call after that.
	ErrConnectionLost = errors.New("rpc: connection lost")
	// ErrOverloaded is returned when the server shed the request because
	// its wait queue was full. Handlers return errors wrapping it; the
	// wire code resurfaces it typed on the client, where it means "the
	// call never ran — back off and retry".
	ErrOverloaded = errors.New("rpc: server overloaded")
)

// Wire codes tag machine-readable error classes on reply envelopes, so the
// client surfaces typed errors rather than opaque strings.
const (
	// codeServerClosed marks a shutdown refusal.
	codeServerClosed = "server-closed"
	// codeOverloaded marks a request shed by an overloaded server.
	codeOverloaded = "overloaded"
	// codeDeadline marks a handler cut off by the request's own deadline.
	codeDeadline = "deadline"
)

// MaxFrame bounds a frame to keep a corrupt length prefix from allocating
// unbounded memory.
const MaxFrame = 64 << 20

// drainTimeout bounds how long Close waits for in-flight replies to flush:
// a client that stopped reading would otherwise block a reply write — and
// with it the drain — forever. A var so tests can shorten it.
var drainTimeout = 10 * time.Second

// encodeFrame renders one length-prefixed JSON message.
func encodeFrame(v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	if len(body) > MaxFrame {
		return nil, fmt.Errorf("rpc: frame of %d bytes exceeds limit", len(body))
	}
	frame := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(frame[:4], uint32(len(body)))
	copy(frame[4:], body)
	return frame, nil
}

// frame writes one length-prefixed JSON message.
func writeFrame(w io.Writer, v any) error {
	frame, err := encodeFrame(v)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// readFrame reads one length-prefixed JSON message into v.
func readFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return fmt.Errorf("rpc: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// envelope wraps every wire message.
type envelope struct {
	ID     uint64          `json:"id"`
	Method string          `json:"method,omitempty"`
	Body   json.RawMessage `json:"body,omitempty"`
	Err    string          `json:"err,omitempty"`
	// Code tags machine-readable error classes (see codeServerClosed).
	Code string `json:"code,omitempty"`
	// TimeoutNS is the caller's remaining deadline budget, carried as a
	// relative duration (absolute times don't survive clock skew); the
	// server bounds the handler's context with it.
	TimeoutNS int64 `json:"timeout_ns,omitempty"`
}

// Handler serves one method: it receives the request context (carrying the
// caller's deadline, if any) and raw body, and returns the response value
// or an error.
type Handler func(ctx context.Context, body json.RawMessage) (any, error)

// Server dispatches incoming calls on a listener.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]Handler
	conns    map[net.Conn]struct{}
	lis      net.Listener
	connWG   sync.WaitGroup
	closed   chan struct{}

	// reqMu guards closing and admission into reqWG: once closing is set no
	// new handler may start, so Close's reqWG.Wait() drains a fixed set.
	reqMu   sync.Mutex
	closing bool
	reqWG   sync.WaitGroup
}

// NewServer returns a server that owns the listener.
func NewServer(lis net.Listener) *Server {
	return &Server{
		handlers: map[string]Handler{},
		conns:    map[net.Conn]struct{}{},
		lis:      lis,
		closed:   make(chan struct{}),
	}
}

// Handle registers a method handler; it must be called before Serve.
func (s *Server) Handle(method string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = h
}

// Serve accepts connections until Close; it returns after the listener
// closes.
func (s *Server) Serve() {
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// admit registers one in-flight request, unless the server is draining.
func (s *Server) admit() bool {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	if s.closing {
		return false
	}
	s.reqWG.Add(1)
	return true
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	var wmu sync.Mutex
	w := bufio.NewWriter(conn)
	reply := func(env envelope) {
		wmu.Lock()
		defer wmu.Unlock()
		if err := writeFrame(w, env); err == nil {
			w.Flush()
		}
	}
	for {
		var req envelope
		if err := readFrame(r, &req); err != nil {
			return
		}
		s.mu.RLock()
		h := s.handlers[req.Method]
		s.mu.RUnlock()
		if !s.admit() {
			// Shutting down: refuse instead of racing the drain, so the
			// pending client call unblocks with a typed error.
			reply(envelope{ID: req.ID, Err: ErrServerClosed.Error(), Code: codeServerClosed})
			continue
		}
		go func(req envelope) {
			defer s.reqWG.Done()
			if h == nil {
				reply(envelope{ID: req.ID, Err: fmt.Sprintf("rpc: unknown method %q", req.Method)})
				return
			}
			ctx := context.Background()
			if req.TimeoutNS > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutNS))
				defer cancel()
			}
			out, err := h(ctx, req.Body)
			if err != nil {
				reply(envelope{ID: req.ID, Err: err.Error(), Code: errCode(err)})
				return
			}
			body, err := json.Marshal(out)
			if err != nil {
				reply(envelope{ID: req.ID, Err: err.Error()})
				return
			}
			reply(envelope{ID: req.ID, Body: body})
		}(req)
	}
}

// errCode maps a handler failure to its wire code ("" for plain errors),
// so typed error classes survive the string-typed wire.
func errCode(err error) string {
	switch {
	case errors.Is(err, ErrOverloaded):
		return codeOverloaded
	case errors.Is(err, context.DeadlineExceeded):
		return codeDeadline
	}
	return ""
}

// Close stops accepting, drains in-flight handlers (their replies are
// flushed to the still-open connections), then tears connections down and
// waits for the connection goroutines. Requests arriving during the drain
// fail fast with ErrServerClosed. Close is idempotent.
func (s *Server) Close() {
	s.reqMu.Lock()
	if s.closing {
		s.reqMu.Unlock()
		return
	}
	s.closing = true
	s.reqMu.Unlock()

	close(s.closed)
	s.lis.Close()
	// Bound the drain: every in-flight reply must flush within drainTimeout
	// or fail with a deadline error, so a stalled client (one that stopped
	// reading, with a full TCP buffer) cannot wedge Close. All admitted
	// handlers run on conns registered before closing was set, so this
	// snapshot covers every write the drain waits on.
	deadline := time.Now().Add(drainTimeout)
	s.mu.Lock()
	for conn := range s.conns {
		conn.SetWriteDeadline(deadline)
	}
	s.mu.Unlock()
	s.reqWG.Wait()
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
}

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.lis.Addr() }

// Client multiplexes calls over one connection.
type Client struct {
	conn net.Conn
	wmu  sync.Mutex
	w    *bufio.Writer

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan envelope
	err     error
}

// Dial connects to a server, blocking until the connection lands or the
// network gives up. Prefer DialTimeout for anything that must not hang on
// an unroutable address.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// DialTimeout is Dial with a bound on connection establishment (0 means
// no bound, i.e. Dial).
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient speaks the protocol over an established connection — the seam
// fault injectors and alternative transports plug into.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		w:       bufio.NewWriter(conn),
		pending: map[uint64]chan envelope{},
	}
	go c.readLoop()
	return c
}

// fail marks the client dead with a typed error (keeping the first cause)
// and unblocks every pending call by closing its channel.
func (c *Client) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
	}
	for id, ch := range c.pending {
		close(ch)
		delete(c.pending, id)
	}
}

func (c *Client) readLoop() {
	r := bufio.NewReader(c.conn)
	for {
		var env envelope
		if err := readFrame(r, &env); err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrConnectionLost, err))
			return
		}
		c.mu.Lock()
		ch := c.pending[env.ID]
		delete(c.pending, env.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- env
		}
	}
}

// Call invokes method with req, decoding the response into resp (which may
// be nil for fire-and-check calls). After the transport dies or Close is
// called, Call fails fast with the typed cause (ErrClientClosed,
// ErrConnectionLost).
func (c *Client) Call(method string, req, resp any) error {
	return c.CallContext(context.Background(), method, req, resp)
}

// CallContext is Call with a per-call deadline: the context's remaining
// budget rides the request envelope (the server bounds the handler with
// it), and a context that expires while the call is in flight abandons the
// reply and returns ctx.Err(). The connection stays usable — a late reply
// to an abandoned id is dropped by the read loop.
func (c *Client) CallContext(ctx context.Context, method string, req, resp any) error {
	if err := ctx.Err(); err != nil {
		return err // never send a call its caller has already abandoned
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	env := envelope{Method: method, Body: body}
	if dl, ok := ctx.Deadline(); ok {
		budget := time.Until(dl)
		if budget <= 0 {
			return context.DeadlineExceeded
		}
		// The server gets 7/8 of the caller's budget: a handler that runs
		// to its deadline (e.g. degrading to an incumbent plan) still has
		// the remaining 1/8 for its reply to cross the wire before the
		// caller's own context abandons the call.
		env.TimeoutNS = (budget - budget/8).Nanoseconds()
	}

	ch := make(chan envelope, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	c.nextID++
	id := c.nextID
	env.ID = id
	c.pending[id] = ch
	c.mu.Unlock()

	// Marshal and limit failures above are the caller's; from here on, any
	// failure is the transport's, and poisons the connection.
	frame, err := encodeFrame(env)
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return err
	}
	c.wmu.Lock()
	_, err = c.w.Write(frame)
	if err == nil {
		err = c.w.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		// A half-written frame has desynced the stream for every user of
		// the connection, so the whole client fails typed — unless Close or
		// the read loop got there first, whose cause wins.
		c.fail(fmt.Errorf("%w: write: %v", ErrConnectionLost, err))
		c.mu.Lock()
		delete(c.pending, id)
		err := c.err
		c.mu.Unlock()
		return err
	}

	select {
	case env, ok := <-ch:
		if !ok {
			// The connection died (or Close ran) before a reply arrived.
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
			if err == nil {
				err = ErrConnectionLost
			}
			return err
		}
		return decodeReply(env, resp)
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return ctx.Err()
	}
}

// decodeReply surfaces a reply envelope as a typed error or the decoded
// response body.
func decodeReply(env envelope, resp any) error {
	if env.Err != "" {
		switch env.Code {
		case codeServerClosed:
			return ErrServerClosed
		case codeOverloaded:
			return wrapCoded(env.Err, ErrOverloaded)
		case codeDeadline:
			return wrapCoded(env.Err, context.DeadlineExceeded)
		}
		return errors.New(env.Err)
	}
	if resp != nil {
		return json.Unmarshal(env.Body, resp)
	}
	return nil
}

// wrapCoded rebuilds a typed error from its wire string: the server-side
// message usually ends in the base error's own text (it wrapped the same
// sentinel), which is cut before re-wrapping so the text doesn't double.
func wrapCoded(msg string, base error) error {
	if msg == base.Error() {
		return base
	}
	if trimmed, ok := strings.CutSuffix(msg, ": "+base.Error()); ok {
		msg = trimmed
	}
	return fmt.Errorf("%s: %w", msg, base)
}

// Close tears the connection down; pending and subsequent calls fail with
// ErrClientClosed.
func (c *Client) Close() error {
	c.fail(ErrClientClosed)
	return c.conn.Close()
}
