package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"
)

// echoServer serves framed sessions on a fresh TCP listener, answering
// every request with handler.
func echoServer(t *testing.T, handler func(Request) Response) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { _ = ServeConn(conn, handler, ServeOptions{}) }()
		}
	}()
	return ln.Addr().String()
}

// callT is callVia over TCP.
func callT(addr string, req Request, timeout time.Duration) (Response, error) {
	return callVia(nil, addr, req, timeout)
}

func TestCallRoundTrip(t *testing.T) {
	addr := echoServer(t, func(req Request) Response {
		if req.Type != TStoreGet || req.Name != "k" || req.Layer != 1 {
			return Response{Err: fmt.Sprintf("unexpected request %v", req.Type)}
		}
		return Response{OK: true, Value: []byte("stored")}
	})
	resp, err := callT(addr, Request{Type: TStoreGet, Layer: 1, Name: "k"}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Value) != "stored" {
		t.Errorf("value = %q", resp.Value)
	}
}

func TestCallRemoteError(t *testing.T) {
	addr := echoServer(t, func(req Request) Response {
		return Response{Err: fmt.Sprintf("boom %d", 42)}
	})
	_, err := callT(addr, Request{Type: TStoreGet, Name: "x"}, 2*time.Second)
	var re *RemoteError
	if err == nil || !errors.As(err, &re) || re.Msg != "boom 42" {
		t.Errorf("want remote error, got %v", err)
	}
}

func TestCallDialFailure(t *testing.T) {
	if _, err := callT("127.0.0.1:1", Request{Type: TPing}, 300*time.Millisecond); err == nil {
		t.Error("dialing a dead port should fail")
	}
}

func TestCallTimeout(t *testing.T) {
	// A server that accepts but never responds.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stall := make(chan struct{})
	defer close(stall)
	go func() {
		for {
			conn, acceptErr := ln.Accept()
			if acceptErr != nil {
				return
			}
			defer conn.Close()
			buf := make([]byte, 1024)
			_, _ = conn.Read(buf) // swallow the request, say nothing
			<-stall
		}
	}()
	start := time.Now()
	_, err = callT(ln.Addr().String(), Request{Type: TPing}, 200*time.Millisecond)
	if err == nil {
		t.Fatal("silent server should time out")
	}
	if time.Since(start) > 2*time.Second {
		t.Error("timeout not honored")
	}
}

func TestCallHonorsContextCancel(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stall := make(chan struct{})
	defer close(stall)
	go func() {
		conn, acceptErr := ln.Accept()
		if acceptErr != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 1024)
		_, _ = conn.Read(buf)
		<-stall
	}()
	p := NewPool(PoolOptions{})
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, callErr := p.Call(ctx, ln.Addr().String(), Request{Type: TPing})
		done <- callErr
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("canceled call reported success")
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancellation cause not propagated: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancellation did not abort the call")
	}
}

func TestComplexPayloadsSurviveCodecs(t *testing.T) {
	table := RingTable{
		Layer: 2, Name: "1012",
		Smallest: Peer{Addr: "a:1", ID: [20]byte{1}},
		SecondSm: Peer{Addr: "b:2", ID: [20]byte{2}},
		Largest:  Peer{Addr: "c:3", ID: [20]byte{3}},
		SecondLg: Peer{Addr: "d:4", ID: [20]byte{4}},
	}
	addr := echoServer(t, func(req Request) Response {
		return Response{
			OK:        true,
			Table:     req.Table,
			Found:     true,
			Succ:      []Peer{req.Peer, req.Table.Largest},
			RingNames: []string{"1012", "2201"},
			Coord:     [2]float64{1.5, -2.5},
		}
	})
	resp, err := callT(addr, Request{
		Type:  TGetRingTable,
		Table: table,
		Peer:  Peer{Addr: "e:5", ID: [20]byte{5}},
	}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Table != table {
		t.Errorf("table mangled: %+v", resp.Table)
	}
	if len(resp.Succ) != 2 || resp.Succ[0].Addr != "e:5" {
		t.Errorf("succ mangled: %+v", resp.Succ)
	}
	if resp.RingNames[1] != "2201" || resp.Coord[1] != -2.5 {
		t.Errorf("auxiliary fields mangled")
	}
	if !resp.Found {
		t.Errorf("bool lost")
	}
}

func TestMsgTypeStrings(t *testing.T) {
	names := map[MsgType]string{
		TPing: "ping", TGetInfo: "get_info", TFindClosest: "find_closest",
		TGetNeighbors: "get_neighbors", TNotify: "notify",
		TGetRingTable: "get_ring_table", TPutRingTable: "put_ring_table",
		TStoreGet: "store_get", TRouteGossip: "route_gossip",
		8: "MsgType(8)", 9: "MsgType(9)", // the retired put and get
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
	if MsgType(99).String() == "" {
		t.Error("unknown type should render")
	}
}
