package mpi

import "testing"

func BenchmarkSendRecvPingPong(b *testing.B) {
	payload := make([]float64, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	_, err := Run(2, func(c *Comm) {
		for i := 0; i < b.N; i++ {
			if c.Rank() == 0 {
				Send(c, 1, 0, payload)
				Recv[float64](c, 1, 1)
			} else {
				Recv[float64](c, 0, 0)
				Send(c, 0, 1, payload)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkBcast8(b *testing.B) {
	payload := make([]float64, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	_, err := Run(8, func(c *Comm) {
		for i := 0; i < b.N; i++ {
			Bcast(c, 0, payload)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkAlltoallv8(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	_, err := Run(8, func(c *Comm) {
		send := make([][]float64, 8)
		for j := range send {
			send[j] = make([]float64, 512)
		}
		for i := 0; i < b.N; i++ {
			Alltoallv(c, send)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkAllreduce8(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	_, err := Run(8, func(c *Comm) {
		data := make([]int64, 256)
		for i := 0; i < b.N; i++ {
			Allreduce(c, data, SumI64)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
