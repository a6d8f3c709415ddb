(* Tests for the virtual-time serving subsystem: event ordering,
   fixed-seed determinism, admission accounting, SLO isolation of
   well-behaved tenants from an overloaded neighbour, and the
   restart-monitor cutoff under hypervisor-attack churn. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* --- event queue ------------------------------------------------------- *)

let test_event_queue_ordering () =
  let q = Serve.Event_queue.create () in
  List.iter (fun at -> Serve.Event_queue.push q ~at at)
    [ 30; 5; 17; 5; 90; 1; 17; 17 ];
  checki "length" 8 (Serve.Event_queue.length q);
  checkb "peek is minimum" true (Serve.Event_queue.peek_time q = Some 1);
  let popped = ref [] in
  let rec drain () =
    if Serve.Event_queue.pop q then begin
      checki "payload equals time"
        (Serve.Event_queue.popped_at q)
        (Serve.Event_queue.popped_payload q);
      popped := Serve.Event_queue.popped_at q :: !popped;
      drain ()
    end
  in
  drain ();
  checkb "sorted" true
    (List.rev !popped = [ 1; 5; 5; 17; 17; 17; 30; 90 ]);
  checkb "empty after drain" true (Serve.Event_queue.is_empty q)

let test_event_queue_fifo_ties () =
  (* Simultaneous events pop in push order (the determinism tie-break). *)
  let q = Serve.Event_queue.create () in
  List.iter (fun tag -> Serve.Event_queue.push q ~at:7 tag) [ 10; 11; 12; 13 ];
  let order = ref [] in
  let rec drain () =
    if Serve.Event_queue.pop q then begin
      order := Serve.Event_queue.popped_payload q :: !order;
      drain ()
    end
  in
  drain ();
  checkb "fifo among ties" true (List.rev !order = [ 10; 11; 12; 13 ])

(* --- scenarios --------------------------------------------------------- *)

(* A small two-tenant scenario that runs in well under a second. *)
let small_cfgs ?(hash_load = 2.5) ?(hash_requests = 120)
    ?(hash_deadline = Some 12.0) () =
  [
    {
      Serve.Tenant.name = "kv";
      workload = Serve.Tenant.Kvstore;
      policy = Serve.Tenant.Clusters;
      partition_frames = 192;
      epc_limit = 160;
      enclave_pages = 512;
      heap_pages = 256;
      generator = Serve.Tenant.Open_loop { load = 0.5 };
      queue_capacity = 16;
      deadline = None;
      requests = 80;
      arrive_after = 0;
      depart_after = None;
    };
    {
      Serve.Tenant.name = "hash";
      workload = Serve.Tenant.Uthash;
      policy = Serve.Tenant.Rate_limit;
      partition_frames = 160;
      epc_limit = 96;
      enclave_pages = 512;
      heap_pages = 256;
      generator = Serve.Tenant.Open_loop { load = hash_load };
      queue_capacity = 8;
      deadline = hash_deadline;
      requests = hash_requests;
      arrive_after = 0;
      depart_after = None;
    };
  ]

let params ?(seed = 11) ?arbiter ?attack ?(max_restarts = 3) () =
  let p = Serve.Engine.default_params ~seed in
  {
    p with
    Serve.Engine.p_spare_frames = 64;
    p_calibration = 8;
    p_max_restarts = max_restarts;
    p_arbiter = arbiter;
    p_attack = attack;
  }

(* One member of a custom scenario through the report driver. *)
let run_scenario ~params cfgs =
  Serve.Driver.run ~print:false ~scenario:Serve.Driver.Default ~quick:true
    ~params cfgs

let digest r = (List.hd r.Serve.Driver.rp_members).Serve.Driver.mr_digest

let test_fixed_seed_determinism () =
  let run () =
    run_scenario
      ~params:(params ~arbiter:Serve.Engine.default_arbiter ())
      (small_cfgs ())
  in
  let r1 = run () and r2 = run () in
  checks "identical reports" (Serve.Driver.to_json r1) (Serve.Driver.to_json r2);
  checkb "digest present" true (digest r1 <> None);
  checks "identical trace digests"
    (Option.get (digest r1))
    (Option.get (digest r2))

let test_admission_accounting () =
  let r =
    run_scenario ~params:(params ()) (small_cfgs ())
  in
  List.iter
    (fun t ->
      checki
        (t.Serve.Driver.tr_name ^ ": verdicts partition arrivals")
        t.Serve.Driver.tr_arrivals
        (t.Serve.Driver.tr_served + t.Serve.Driver.tr_shed
       + t.Serve.Driver.tr_missed);
      checki
        (t.Serve.Driver.tr_name ^ ": every arrival generated")
        t.Serve.Driver.tr_arrivals
        (if t.Serve.Driver.tr_name = "kv" then 80 else 120);
      checki
        (t.Serve.Driver.tr_name ^ ": latency samples = served")
        t.Serve.Driver.tr_served
        t.Serve.Driver.tr_latency.Metrics.Stats.s_count)
    r.Serve.Driver.rp_tenants

let test_overload_sheds_neighbour_keeps_slo () =
  (* The overloaded tenant sheds; the well-behaved tenant's p99 stays
     within 2x of what it sees with no overloaded neighbour at all. *)
  let loaded =
    run_scenario
      ~params:(params ~arbiter:Serve.Engine.default_arbiter ())
      (small_cfgs ())
  in
  let unloaded =
    run_scenario
      ~params:(params ~arbiter:Serve.Engine.default_arbiter ())
      (small_cfgs ~hash_load:0.3 ~hash_requests:40 ())
  in
  let find name r =
    List.find (fun t -> t.Serve.Driver.tr_name = name) r.Serve.Driver.rp_tenants
  in
  let hash = find "hash" loaded in
  checkb "overloaded tenant sheds" true
    (hash.Serve.Driver.tr_shed + hash.Serve.Driver.tr_missed > 0);
  let kv_loaded = find "kv" loaded and kv_unloaded = find "kv" unloaded in
  checki "well-behaved tenant serves everything" kv_loaded.Serve.Driver.tr_arrivals
    kv_loaded.Serve.Driver.tr_served;
  let p99l = kv_loaded.Serve.Driver.tr_latency.Metrics.Stats.s_p99 in
  let p99u = kv_unloaded.Serve.Driver.tr_latency.Metrics.Stats.s_p99 in
  if p99l > 2.0 *. p99u then
    Alcotest.failf "kv p99 %.0f exceeds 2x unloaded p99 %.0f" p99l p99u

let test_arbiter_moves_frames_toward_pressure () =
  let res =
    Serve.Engine.run
      ~params:(params ~arbiter:Serve.Engine.default_arbiter ())
      (small_cfgs ())
  in
  checkb "arbiter acted" true (res.Serve.Engine.r_arbiter_moves > 0);
  let hash =
    Option.get
      (Array.find_opt
         (fun tn -> Serve.Tenant.name tn = "hash")
         res.Serve.Engine.r_tenants)
  in
  checkb "pressured tenant gained frames" true
    (Serve.Tenant.balloon_in_frames hash > 0);
  checkb "pressured tenant partition grew" true
    (Hypervisor.Vmm.partition_frames (Serve.Tenant.vm hash) > 160)

(* Satellite: restart churn under serving.  A hypervisor that keeps
   transparently evicting the victim's pages forces repeated detected
   terminations; the restart monitor allows a bounded number of attested
   restarts and then refuses — from that point every arrival sheds, and
   the co-tenant is unaffected. *)
let test_restart_monitor_refuses_churning_tenant () =
  let r =
    run_scenario
      ~params:
        (params ~max_restarts:1
           ~attack:{ Serve.Engine.atk_victim = "hash"; atk_every = 3 }
           ())
      (* No deadline: the victim's post-restart backlog must still execute
         (and keep getting attacked) rather than time out untouched. *)
      (small_cfgs ~hash_requests:160 ~hash_deadline:None ())
  in
  let find name =
    List.find (fun t -> t.Serve.Driver.tr_name = name) r.Serve.Driver.rp_tenants
  in
  let hash = find "hash" in
  checkb "victim terminated repeatedly" true
    (hash.Serve.Driver.tr_terminations > 1);
  checkb "restarts bounded by monitor" true (hash.Serve.Driver.tr_restarts <= 1);
  checkb "victim refused re-admission" true hash.Serve.Driver.tr_refused;
  checkb "post-refusal arrivals shed" true
    (hash.Serve.Driver.tr_shed > hash.Serve.Driver.tr_terminations);
  checki "verdicts still partition arrivals" hash.Serve.Driver.tr_arrivals
    (hash.Serve.Driver.tr_served + hash.Serve.Driver.tr_shed
   + hash.Serve.Driver.tr_missed);
  let kv = find "kv" in
  checkb "co-tenant unaffected" true (not kv.Serve.Driver.tr_refused);
  checki "co-tenant serves everything" kv.Serve.Driver.tr_arrivals
    kv.Serve.Driver.tr_served

(* --- admission ring ---------------------------------------------------- *)

let test_ring_fifo () =
  let r = Serve.Ring.create ~capacity:3 in
  checkb "empty" true (Serve.Ring.is_empty r);
  Serve.Ring.push r 10;
  Serve.Ring.push r 20;
  Serve.Ring.push r 30;
  checkb "full" true (Serve.Ring.is_full r);
  checkb "push on full raises" true
    (match Serve.Ring.push r 40 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checki "peek head" 10 (Serve.Ring.peek r);
  checki "pop fifo" 10 (Serve.Ring.pop r);
  Serve.Ring.push r 40;  (* wraps around the fixed slots *)
  checki "order kept across wrap" 20 (Serve.Ring.pop r);
  checki "order kept across wrap 2" 30 (Serve.Ring.pop r);
  checki "order kept across wrap 3" 40 (Serve.Ring.pop r);
  checkb "pop on empty raises" true
    (match Serve.Ring.pop r with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Serve.Ring.push r 1;
  Serve.Ring.clear r;
  checkb "clear empties" true (Serve.Ring.is_empty r);
  checkb "capacity validated" true
    (match Serve.Ring.create ~capacity:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- allocation-free hot paths ----------------------------------------- *)

(* Steady-state push/pop on the int-packed structures must not allocate:
   warm the structure past any growth, then measure a long churn. *)
let test_hot_paths_allocation_free () =
  let q = Serve.Event_queue.create () in
  (* Warm the backing array to its steady-state depth first: growth is
     the only allowed allocation. *)
  for i = 1 to 1_024 do Serve.Event_queue.push q ~at:i i done;
  let a0 = Gc.allocated_bytes () in
  for i = 1 to 10_000 do
    ignore (Serve.Event_queue.pop q);
    Serve.Event_queue.push q ~at:(1_024 + i) i
  done;
  while Serve.Event_queue.pop q do () done;
  let a1 = Gc.allocated_bytes () in
  if a1 -. a0 > 128.0 then
    Alcotest.failf "event queue allocated %.0f bytes over 10k ops" (a1 -. a0);
  let r = Serve.Ring.create ~capacity:64 in
  let b0 = Gc.allocated_bytes () in
  for i = 1 to 10_000 do
    Serve.Ring.push r i;
    ignore (Serve.Ring.pop r)
  done;
  let b1 = Gc.allocated_bytes () in
  if b1 -. b0 > 128.0 then
    Alcotest.failf "ring allocated %.0f bytes over 10k ops" (b1 -. b0);
  (* A sketch allocates a chunk of 32 counters on the chunk's first
     sample: the first pass over 97..970,000 touches chunks 2..15, and
     the same stream again allocates nothing. *)
  let sk = Metrics.Sketch.create () in
  let stream () = for i = 1 to 10_000 do Metrics.Sketch.add_int sk (i * 97) done in
  let c0 = Gc.allocated_bytes () in
  stream ();
  let c1 = Gc.allocated_bytes () in
  let chunk_bytes = float_of_int (33 * (Sys.word_size / 8)) in
  if c1 -. c0 > (14.0 *. chunk_bytes) +. 128.0 then
    Alcotest.failf "sketch first pass allocated %.0f bytes, over 14 chunks" (c1 -. c0);
  stream ();
  let c2 = Gc.allocated_bytes () in
  if c2 -. c1 > 128.0 then
    Alcotest.failf "sketch add_int allocated %.0f bytes over 10k ops" (c2 -. c1)

(* Per-served-request allocation of the whole engine loop, measured
   differentially (two runs of the same scenario, different request
   counts) so boot/calibration/report costs cancel out.  The measured
   value (~9.1 kB/request) is dominated by the simulated enclave
   workload body — kvstore hashing and MMU walks allocate on their own
   account; the serving machinery around it (event queue, admission
   ring, sketch) contributes zero, as the preceding test shows.  The
   bound exists to catch regressions that reintroduce per-event boxing
   in the engine loop on top of that floor. *)
let test_request_path_allocation_bounded () =
  let run requests =
    let cfgs =
      [ { (List.hd (small_cfgs ())) with Serve.Tenant.requests; name = "kv" } ]
    in
    let params =
      { (params ()) with Serve.Engine.p_trace = false; p_sketch = true }
    in
    let a0 = Gc.allocated_bytes () in
    ignore (run_scenario ~params cfgs);
    Gc.allocated_bytes () -. a0
  in
  ignore (run 50);  (* warm any lazy initialisation *)
  let small = run 200 in
  let large = run 1_000 in
  let per_request = (large -. small) /. 800.0 in
  if per_request > 12_000.0 then
    Alcotest.failf "served-request path allocates %.0f bytes/request"
      per_request

(* --- sketch-mode accounting -------------------------------------------- *)

(* The exact backend is the reference the sketch is held to: the same
   engine run under both accounts for every arrival identically, and
   each sketch p99 sits within the one-sided error bound of the exact
   p99. *)
let test_sketch_mode_matches_exact_counts () =
  let run sketch =
    (Serve.Engine.run
       ~params:{ (params ()) with Serve.Engine.p_sketch = sketch }
       (small_cfgs ()))
      .Serve.Engine.r_tenants
  in
  let exact = run false and sk = run true in
  Array.iter2
    (fun e s ->
      let name = Serve.Tenant.name e in
      checki (name ^ ": arrivals agree") (Serve.Tenant.arrivals e)
        (Serve.Tenant.arrivals s);
      checki (name ^ ": served agree") (Serve.Tenant.served e)
        (Serve.Tenant.served s);
      checki (name ^ ": shed agree") (Serve.Tenant.shed e) (Serve.Tenant.shed s);
      checkb (name ^ ": backends as configured") true
        (Option.is_none (Serve.Tenant.sketch e)
        && Option.is_some (Serve.Tenant.sketch s));
      let ep = (Serve.Tenant.latency_summary e).Metrics.Stats.s_p99 in
      let sp = (Serve.Tenant.latency_summary s).Metrics.Stats.s_p99 in
      checkb (name ^ ": p99 within sketch bound") true
        (sp >= ep
        && sp <= (ep *. (1.0 +. Metrics.Sketch.relative_error)) +. 1.0))
    exact sk

(* --- new generators in the engine --------------------------------------- *)

let test_heavy_tail_and_diurnal_deterministic () =
  let cfgs =
    [
      { (List.hd (small_cfgs ())) with
        Serve.Tenant.name = "par";
        generator = Serve.Tenant.Heavy_tail { load = 0.8; alpha = 1.5 };
        requests = 120;
      };
      { (List.nth (small_cfgs ()) 1) with
        Serve.Tenant.name = "dirn";
        generator = Serve.Tenant.Diurnal { load = 0.7; depth = 0.6; period = 200.0 };
        requests = 120;
        deadline = None;
      };
    ]
  in
  let run () = run_scenario ~params:(params ()) cfgs in
  let r1 = run () and r2 = run () in
  checks "identical reports" (Serve.Driver.to_json r1) (Serve.Driver.to_json r2);
  List.iter
    (fun t ->
      checki
        (t.Serve.Driver.tr_name ^ ": verdicts partition arrivals")
        t.Serve.Driver.tr_arrivals
        (t.Serve.Driver.tr_served + t.Serve.Driver.tr_shed
       + t.Serve.Driver.tr_missed);
      checki (t.Serve.Driver.tr_name ^ ": every arrival generated") 120
        t.Serve.Driver.tr_arrivals)
    r1.Serve.Driver.rp_tenants

(* --- tenant churn ------------------------------------------------------- *)

let churn_cfgs () =
  [
    List.hd (small_cfgs ());
    { (List.nth (small_cfgs ~hash_load:0.8 ~hash_deadline:None ()) 1) with
      Serve.Tenant.name = "late";
      arrive_after = 400_000;
      requests = 60;
    };
    { (List.hd (small_cfgs ())) with
      Serve.Tenant.name = "gone";
      workload = Serve.Tenant.Uthash;
      generator = Serve.Tenant.Open_loop { load = 1.0 };
      requests = 500;
      depart_after = Some 1_000_000;
    };
  ]

let test_churn_join_and_depart () =
  let r =
    run_scenario ~params:(params ()) (churn_cfgs ())
  in
  let find name =
    List.find (fun t -> t.Serve.Driver.tr_name = name) r.Serve.Driver.rp_tenants
  in
  let late = find "late" in
  checkb "joiner paid a cold start" true (late.Serve.Driver.tr_boot_cycles > 0);
  checki "joiner generated its full stream" 60 late.Serve.Driver.tr_arrivals;
  checki "joiner accounting conserves" late.Serve.Driver.tr_arrivals
    (late.Serve.Driver.tr_served + late.Serve.Driver.tr_shed
   + late.Serve.Driver.tr_missed);
  checkb "run extends past the join" true
    ((List.hd r.Serve.Driver.rp_members).Serve.Driver.mr_end_cycle
    > late.Serve.Driver.tr_arrive_after + late.Serve.Driver.tr_boot_cycles);
  let gone = find "gone" in
  checkb "departer left" true gone.Serve.Driver.tr_departed;
  checkb "departer arrivals truncated uncounted" true
    (gone.Serve.Driver.tr_arrivals < 500);
  checki "departer accounting conserves" gone.Serve.Driver.tr_arrivals
    (gone.Serve.Driver.tr_served + gone.Serve.Driver.tr_shed
   + gone.Serve.Driver.tr_missed);
  let kv = find "kv" in
  checki "steady tenant unaffected" kv.Serve.Driver.tr_arrivals
    kv.Serve.Driver.tr_served

let test_churn_deterministic () =
  let run () =
    run_scenario ~params:(params ()) (churn_cfgs ())
  in
  let r1 = run () and r2 = run () in
  checks "identical churn reports" (Serve.Driver.to_json r1)
    (Serve.Driver.to_json r2)

let test_churn_join_goes_through_monitor () =
  (* A parked tenant's cold start goes through the restart monitor like
     any other attested start: with the budget squeezed to one start
     per tenant while an attack churns the victim, the late joiner
     still books exactly its own join and conserves its arrivals. *)
  let cfgs =
    [
      List.hd (small_cfgs ());
      { (List.nth (small_cfgs ~hash_requests:160 ~hash_deadline:None ()) 1) with
        Serve.Tenant.arrive_after = 0;
      };
      { (List.nth (small_cfgs ~hash_load:0.8 ~hash_deadline:None ()) 1) with
        Serve.Tenant.name = "late";
        arrive_after = 400_000;
        requests = 40;
      };
    ]
  in
  let r =
    run_scenario
      ~params:
        (params ~max_restarts:1
           ~attack:{ Serve.Engine.atk_victim = "hash"; atk_every = 3 }
           ())
      cfgs
  in
  let late =
    List.find (fun t -> t.Serve.Driver.tr_name = "late") r.Serve.Driver.rp_tenants
  in
  (* The monitor allowed one start for "late" (its join); its arrivals
     still partition exactly. *)
  checkb "join was attested (cold-start charged)" true
    (late.Serve.Driver.tr_boot_cycles > 0);
  checki "late accounting conserves" late.Serve.Driver.tr_arrivals
    (late.Serve.Driver.tr_served + late.Serve.Driver.tr_shed
   + late.Serve.Driver.tr_missed)

(* --- fleet scenario and members ------------------------------------------ *)

let run_fleet ?(members = 1) ?(jobs = 1) ?out ~tenants () =
  Serve.Driver.run ~members ~jobs ?out ~print:false ~scenario:Serve.Driver.Fleet
    ~quick:true
    ~params:(Serve.Driver.params ~seed:5 ~no_arbiter:false)
    (Serve.Driver.fleet_scenario ~tenants ~quick:true)

let test_fleet_scale_report () =
  let r = run_fleet ~members:2 ~tenants:12 () in
  let rows = r.Serve.Driver.rp_tenants in
  checki "rows = members x tenants_n" (2 * r.Serve.Driver.rp_tenants_n)
    (List.length rows);
  checki "tenants per member" 12 r.Serve.Driver.rp_tenants_n;
  checkb "member 0 at the root seed, member 1 at its shard seed" true
    (List.map (fun m -> m.Serve.Driver.mr_seed) r.Serve.Driver.rp_members
    = [ 5; Parallel.Pool.shard_seed ~root:5 ~shard:1 ]);
  checkb "rows member-major" true
    (List.map (fun t -> t.Serve.Driver.tr_member) rows
    = List.init 24 (fun i -> i / 12));
  checki "conservation" r.Serve.Driver.rp_arrivals
    (r.Serve.Driver.rp_served + r.Serve.Driver.rp_shed
   + r.Serve.Driver.rp_missed);
  checkb "churn happened" true
    (r.Serve.Driver.rp_joins > 0 && r.Serve.Driver.rp_departures > 0);
  checkb "cold starts charged" true (r.Serve.Driver.rp_boot_cycles_total > 0);
  checkb "untraced" true
    (List.for_all (fun m -> m.Serve.Driver.mr_digest = None) r.Serve.Driver.rp_members);
  (* The pooled count equals the served total and the rows' sum. *)
  checki "fleet latency counts served" r.Serve.Driver.rp_served
    r.Serve.Driver.rp_fleet_latency.Metrics.Stats.s_count;
  checki "served total = sum of rows" r.Serve.Driver.rp_served
    (List.fold_left (fun acc t -> acc + t.Serve.Driver.tr_served) 0 rows)

let test_fleet_scale_jobs_invariant () =
  let run jobs = Serve.Driver.to_json (run_fleet ~members:3 ~jobs ~tenants:6 ()) in
  checks "byte-identical at jobs 1 vs 3" (run 1) (run 3)

let test_fleet_scale_json_validates () =
  let validate name r =
    match
      Harness.Schema.validate ~ctx:name
        (Harness.Microjson.of_string (Serve.Driver.to_json r))
    with
    | Ok () -> ()
    | Error es -> Alcotest.failf "%s JSON invalid: %s" name (String.concat "; " es)
  in
  validate "fleet" (run_fleet ~tenants:6 ());
  validate "default"
    (Serve.Driver.run ~print:false ~scenario:Serve.Driver.Default ~quick:true
       ~params:(Serve.Driver.params ~seed:5 ~no_arbiter:false)
       (Serve.Driver.default_scenario ~quick:true))

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file file s =
  let oc = open_out_bin file in
  output_string oc s;
  close_out oc

let test_check_gate_round_trip () =
  (* A baseline written by the quick fleet run must pass its own gate
     (drift 0), and a corrupted one must fail the exact layer. *)
  let file = Filename.temp_file "serve_check" ".json" in
  ignore (run_fleet ~out:file ~tenants:6 ());
  checkb "self-check passes" true
    (Serve.Driver.check ~baseline:file ~tolerance:0.01 ());
  (* Break conservation in the totals. *)
  write_file file
    (Str.global_replace (Str.regexp {|"served": [0-9]+,|}) {|"served": 1,|}
       (read_file file));
  checkb "corrupt baseline fails" false
    (Serve.Driver.check ~baseline:file ~tolerance:0.01 ());
  Sys.remove file

(* Each malformed baseline is a failed check — one CHECK FAILED line
   and [false] — never an exception out of the gate, and never a
   re-run at a truncated value. *)
let test_check_gate_rejects_malformed () =
  let file = Filename.temp_file "serve_malformed" ".json" in
  ignore (run_fleet ~out:file ~tenants:6 ());
  let good = read_file file in
  let fails name ~pat ~by =
    let bad = Str.replace_first (Str.regexp pat) by good in
    checkb (name ^ ": edit applied") true (bad <> good);
    write_file file bad;
    checkb name false (Serve.Driver.check ~baseline:file ())
  in
  fails "tenants_n 0" ~pat:{|"tenants_n": 6|} ~by:{|"tenants_n": 0|};
  fails "unknown scenario" ~pat:{|"scenario": "fleet"|} ~by:{|"scenario": "mystery"|};
  fails "fractional seed" ~pat:{|"seed": 5,|} ~by:{|"seed": 5.5,|};
  fails "no members" ~pat:{|"members": \[[^]]*\]|} ~by:{|"members": []|};
  fails "default scenario with the wrong size"
    ~pat:{|"scenario": "fleet"|} ~by:{|"scenario": "default"|};
  Sys.remove file;
  checkb "missing file" false (Serve.Driver.check ~baseline:file ())

(* --- memory ledger ------------------------------------------------------- *)

let ledger = lazy (Serve.Driver.footprint ())

(* Words per tenant of each class after the committed quick fleet's
   run, each held within about 5% of the value measured when the bound
   was set: one structure cannot grow inside a total that another
   shrank, and a structure that stops reporting cannot drift into the
   unattributed rest. *)
let test_footprint_classes_per_tenant () =
  let _, fp = Lazy.force ledger in
  List.iter
    (fun (cls, lo, hi) ->
      let per_tenant = Harness.Footprint.words fp cls / fp.Harness.Footprint.tenants in
      if per_tenant < lo || per_tenant > hi then
        Alcotest.failf "%s: %d words per tenant (expected %d..%d)"
          (Metrics.Words.class_name cls) per_tenant lo hi)
    Metrics.Words.
      [ (Swap_stores, 1_270, 1_410); (Flat_windows, 2_810, 3_110);
        (Workload_tables, 2_060, 2_280); (Latency, 215, 240);
        (Epc_payloads, 1_380, 1_530); (Epcm, 333, 370); (Tlb, 301, 335);
        (Oram, 246, 275) ]

let test_footprint_reconciles () =
  let at_start, at_end = Lazy.force ledger in
  List.iter
    (fun (label, fp) ->
      let attributed =
        List.fold_left (fun a (_, w) -> a + w) 0 fp.Harness.Footprint.by_class
      in
      if attributed > fp.Harness.Footprint.reachable then
        Alcotest.failf "%s: %d words attributed, %d reachable" label attributed
          fp.Harness.Footprint.reachable)
    [ ("after start", at_start); ("after run", at_end) ]

let test_footprint_deterministic () =
  let show (a, b) =
    Format.asprintf "%a%a" (Harness.Footprint.pp ~label:"start") a
      (Harness.Footprint.pp ~label:"run") b
  in
  checks "same report" (show (Lazy.force ledger))
    (show (Serve.Driver.footprint ()))

let suite =
  [
    ("event queue orders by time", `Quick, test_event_queue_ordering);
    ("event queue breaks ties FIFO", `Quick, test_event_queue_fifo_ties);
    ("fixed-seed determinism", `Quick, test_fixed_seed_determinism);
    ("admission accounting", `Quick, test_admission_accounting);
    ("overload sheds, neighbour keeps SLO", `Quick,
     test_overload_sheds_neighbour_keeps_slo);
    ("arbiter moves frames toward pressure", `Quick,
     test_arbiter_moves_frames_toward_pressure);
    ("restart monitor refuses churning tenant", `Quick,
     test_restart_monitor_refuses_churning_tenant);
    ("ring is a bounded fifo", `Quick, test_ring_fifo);
    ("hot paths allocation-free", `Quick, test_hot_paths_allocation_free);
    ("request path allocation bounded", `Quick,
     test_request_path_allocation_bounded);
    ("sketch mode matches exact counts", `Quick,
     test_sketch_mode_matches_exact_counts);
    ("heavy-tail and diurnal deterministic", `Quick,
     test_heavy_tail_and_diurnal_deterministic);
    ("churn join and depart", `Quick, test_churn_join_and_depart);
    ("churn deterministic", `Quick, test_churn_deterministic);
    ("churn join goes through monitor", `Quick,
     test_churn_join_goes_through_monitor);
    ("fleet-scale report", `Quick, test_fleet_scale_report);
    ("fleet-scale jobs invariant", `Quick, test_fleet_scale_jobs_invariant);
    ("fleet-scale json validates", `Quick, test_fleet_scale_json_validates);
    ("check gate round trip", `Quick, test_check_gate_round_trip);
    ("check gate rejects malformed baselines", `Quick,
     test_check_gate_rejects_malformed);
    ("footprint classes per tenant", `Quick, test_footprint_classes_per_tenant);
    ("footprint reconciles with reachable words", `Quick, test_footprint_reconciles);
    ("footprint deterministic", `Quick, test_footprint_deterministic);
  ]
