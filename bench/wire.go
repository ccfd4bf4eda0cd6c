package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"fdnull/internal/serve"
)

// tenantDef describes one tenant of a daemon workload: enough to build
// its serve.TenantSpec, and its generator-side layout.
type tenantDef struct {
	name    string
	scheme  string
	attrs   []string
	prefix  []byte // one domain prefix letter per attribute
	sizes   []int  // domain sizes
	key     string
	fds     string
	durable bool
}

func (d tenantDef) layout() layout { return layout{attrs: d.attrs} }

func (d tenantDef) token() string { return "tok-" + d.name }

// spec builds the tenant's daemon configuration; dir is the durable
// root, used only when the tenant is durable.
func (d tenantDef) spec(dir string) serve.TenantSpec {
	sp := serve.TenantSpec{
		Name: d.name, Token: d.token(), Shards: 2, Key: []string{d.key},
		Scheme: serve.SchemeSpec{Name: d.scheme},
		FDs:    d.fds,
	}
	for i, a := range d.attrs {
		sp.Scheme.Attrs = append(sp.Scheme.Attrs, serve.AttrSpec{
			Name:   a,
			Domain: serve.DomainSpec{Name: "dom" + a, Prefix: string(d.prefix[i]), Size: d.sizes[i]},
		})
	}
	if d.durable {
		sp.Dir = dir + "/" + d.name
	}
	return sp
}

// daemon is the real fdserve core booted in-process on a loopback
// listener.
type daemon struct {
	srv  *serve.Server
	done chan struct{}
}

func bootDaemon(def tenantDef, dir string) (*daemon, error) {
	srv, err := serve.New(&serve.Config{Tenants: []serve.TenantSpec{def.spec(dir)}})
	if err != nil {
		return nil, err
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		_ = srv.CloseTenants() // the listen error is the one to report
		return nil, err
	}
	d := &daemon{srv: srv, done: make(chan struct{})}
	go func() {
		srv.Serve()
		close(d.done)
	}()
	return d, nil
}

func (d *daemon) addr() string { return d.srv.Addr() }

// shutdown drains the daemon and waits for its accept loop to exit.
func (d *daemon) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	<-d.done
	return err
}

// client is one authenticated line-protocol connection. A request is
// built with append into buf, written with one Write, and the reply is
// read as one line and checked by prefix, so the generator side of a
// round trip allocates nothing and parses nothing it does not need.
type client struct {
	conn net.Conn
	r    *bufio.Reader
	l    layout
	buf  []byte
	long []byte // backing store for replies longer than the reader's buffer

	capBuf   []byte
	captured [][]byte

	reqBytes, respBytes int64
}

func dialClient(addr string, d tenantDef) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &client{conn: conn, r: bufio.NewReaderSize(conn, 64<<10), l: d.layout(), buf: make([]byte, 0, 1024)}
	auth := fmt.Sprintf(`{"op":"auth","tenant":%q,"token":%q}`+"\n", d.name, d.token())
	reply, err := c.roundTrip([]byte(auth))
	if err == nil && !isOK(reply) {
		err = fmt.Errorf("auth %s refused: %s", d.name, reply)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

func (c *client) close() error { return c.conn.Close() }

// roundTrip sends one request line and returns the reply line, valid
// until the next call.
func (c *client) roundTrip(req []byte) ([]byte, error) {
	if _, err := c.conn.Write(req); err != nil {
		return nil, err
	}
	c.reqBytes += int64(len(req))
	line, err := c.r.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		c.long = append(c.long[:0], line...)
		for errors.Is(err, bufio.ErrBufferFull) {
			line, err = c.r.ReadSlice('\n')
			c.long = append(c.long, line...)
		}
		line = c.long
	}
	if err != nil {
		return nil, err
	}
	c.respBytes += int64(len(line))
	return line, nil
}

var (
	okPrefix       = []byte(`{"ok":true`)
	rejectedSuffix = []byte(`"rejected":true}` + "\n")
	witnessText    = []byte("chase found a contradiction")
	rowsOpen       = []byte(`[["`)
)

func isOK(reply []byte) bool { return bytes.HasPrefix(reply, okPrefix) }

// isRejected recognises a constraint rejection carrying the chase's
// witness text.
func isRejected(reply []byte) bool {
	return bytes.HasSuffix(reply, rejectedSuffix) && bytes.Contains(reply, witnessText)
}

// do runs one op against the daemon and reports whether the reply was
// the expected one.
func (c *client) do(o *op) (bool, error) {
	c.buf = o.appendWire(c.buf[:0], c.l, c.captured)
	reply, err := c.roundTrip(c.buf)
	if err != nil {
		return false, err
	}
	if o.reject {
		return isRejected(reply), nil
	}
	if !isOK(reply) {
		return false, nil
	}
	if o.capture {
		return c.captureRow(reply), nil
	}
	return true, nil
}

// captureRow keeps the first answer row of a query reply
// ({"ok":true,"sure":[["d1","e2","-7","c3"]]}); cells never need
// escaping, so a row is split on its quotes.
func (c *client) captureRow(reply []byte) bool {
	i := bytes.Index(reply, rowsOpen)
	if i < 0 {
		return false
	}
	rest := reply[i+2:]
	end := bytes.IndexByte(rest, ']')
	if end < 0 {
		return false
	}
	c.capBuf = append(c.capBuf[:0], rest[:end]...)
	c.captured = c.captured[:0]
	for _, cellq := range bytes.Split(c.capBuf, []byte{','}) {
		c.captured = append(c.captured, bytes.Trim(cellq, `"`))
	}
	return len(c.captured) == c.l.arity()
}

// ping sends the smallest request the daemon answers and returns the
// reply.
func (c *client) ping() ([]byte, error) {
	c.buf = append(c.buf[:0], `{"op":"ping"}`+"\n"...)
	return c.roundTrip(c.buf)
}
