(* Fleet-scale serving benchmark: 100 tenants on one machine — the
   fixed class mix (kv/clusters open loop, heavy-tailed uthash, diurnal
   late joiners, closed-loop spellcheck, overloaded departers) with
   streaming-sketch latency accounting and a pooled-sketch fleet
   roll-up.  Writes BENCH_serve.json (schema autarky-serve/3) in the
   current directory — the committed baseline lives at the repository
   root and is bit-reproducible from the fixed seed. *)

let run () =
  print_endline "== serve: fleet-scale serving benchmark ==";
  ignore
    (Serve.Driver.run ~out:"BENCH_serve.json" ~scenario:Serve.Driver.Fleet
       ~quick:false
       ~params:(Serve.Driver.params ~seed:42 ~no_arbiter:false)
       (Serve.Driver.fleet_scenario ~tenants:100 ~quick:false))
