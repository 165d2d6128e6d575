module tcpdemux/bench

go 1.22

require tcpdemux v0.0.0

replace tcpdemux => ../
