(* Performance-regression harness (BENCH_perf.json).

   Two sections:

   - [micro]: wall-clock and allocation rates of the crypto hot paths,
     measured for both the C kernels and the preserved boxed references
     ({!Sim_crypto.Chacha20_ref} & co.), at a 4 KiB page and at the
     64-byte payload every simulated page seals, so the speedup is
     itself a recorded number.

   - [matrix]: a fixed-seed workload matrix (ycsb / uthash / kvstore x
     rate-limit / clusters / oram x SGXv1 / SGXv2) reporting real wall
     nanoseconds per access, allocated bytes per access
     ([Gc.allocated_bytes]) and modeled cycles per access.

   Wall-clock numbers vary run to run; the JSON schema
   ("autarky-perf/2") is stable so downstream tooling can diff fields
   across commits. *)

type micro_row = {
  mi_name : string;
  mi_iters : int;
  mi_new_ns : float;  (* wall ns per op, optimized implementation *)
  mi_new_alloc : float;  (* allocated bytes per op *)
  mi_ref_ns : float;  (* wall ns per op, boxed reference *)
  mi_ref_alloc : float;
}

let speedup r = if r.mi_new_ns > 0.0 then r.mi_ref_ns /. r.mi_new_ns else 0.0

type matrix_row = {
  mx_workload : string;
  mx_policy : string;
  mx_mech : string;
  mx_ops : int;
  mx_accesses : int;  (* VM accesses the ops performed (deterministic) *)
  mx_wall_ns : float;  (* wall ns per access *)
  mx_alloc : float;  (* allocated bytes per access *)
  mx_cycles : float;  (* modeled cycles per access *)
  mx_faults : int;
}

type report = {
  r_quick : bool;
  r_seed : int;
  r_jobs : int;  (* domains the matrix ran on (wall metadata only) *)
  r_matrix_wall_s : float;  (* wall clock of the whole matrix section *)
  r_micro : micro_row list;
  r_matrix : matrix_row list;
}

(* --- measurement ------------------------------------------------------ *)

(* Bytes allocated so far, exactly.  On OCaml 5.1 [Gc.allocated_bytes]
   counts the minor words allocated since the last minor collection at
   an eighth of their size (a 64-byte seal+unseal allocates 200 B and
   reads as 25 B), so the minor words come from [Gc.minor_words] and
   the direct major allocation from [Gc.counters]. *)
let allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)

(* Best-of-[reps] minimum wall time, which filters scheduler noise; the
   per-op allocation is deterministic, so every rep counts the same. *)
let time_alloc ?(reps = 5) ~iters f =
  f ();
  (* warmup: fault in code paths and scratch buffers *)
  let n = float_of_int iters in
  let best = ref infinity in
  let alloc = ref infinity in
  for _ = 1 to reps do
    let a0 = allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      f ()
    done;
    let t1 = Unix.gettimeofday () in
    let a1 = allocated_bytes () in
    let ns = (t1 -. t0) *. 1e9 /. n in
    if ns < !best then best := ns;
    let a = (a1 -. a0) /. n in
    if a < !alloc then alloc := a
  done;
  (!best, !alloc)

(* --- micro section ---------------------------------------------------- *)

let page_bytes = Sgx.Types.page_bytes

let micro_section ~quick =
  let iters = if quick then 300 else 3_000 in
  let page = Bytes.init page_bytes (fun i -> Char.chr (i land 0xFF)) in
  (* Every simulated page carries this many bytes, so this is the size
     each EWB/ELDU round trip seals. *)
  let payload = Bytes.sub page 0 !Sgx.Page_data.payload_bytes in
  let key = Sim_crypto.Chacha20.key_of_string "perf-bench-key" in
  let nonce = Bytes.make 12 'n' in
  let sip_key = Bytes.init 16 Char.chr in
  let sip_new = Sim_crypto.Siphash.key_of_bytes sip_key in
  let sip_ref = Sim_crypto.Siphash_ref.key_of_bytes sip_key in
  let sealer_new = Sim_crypto.Sealer.create ~master_key:"perf" in
  let sealer_ref = Sim_crypto.Sealer_ref.create ~master_key:"perf" in
  let seal_unseal name data =
    ( name,
      (fun () ->
        let s = Sim_crypto.Sealer.seal sealer_new ~vaddr:0x1000L ~version:1L data in
        match
          Sim_crypto.Sealer.unseal sealer_new ~vaddr:0x1000L ~expected_version:1L s
        with
        | Ok _ -> ()
        | Error _ -> assert false),
      fun () ->
        let s =
          Sim_crypto.Sealer_ref.seal sealer_ref ~vaddr:0x1000L ~version:1L data
        in
        match
          Sim_crypto.Sealer_ref.unseal sealer_ref ~vaddr:0x1000L
            ~expected_version:1L s
        with
        | Ok _ -> ()
        | Error _ -> assert false )
  in
  let cases =
    [
      ( "chacha20.xor_stream/page",
        (fun () -> ignore (Sim_crypto.Chacha20.xor_stream ~key ~nonce page)),
        fun () -> ignore (Sim_crypto.Chacha20_ref.xor_stream ~key ~nonce page) );
      ( "siphash.hash/page",
        (fun () -> ignore (Sim_crypto.Siphash.hash sip_new page)),
        fun () -> ignore (Sim_crypto.Siphash_ref.hash sip_ref page) );
      seal_unseal "sealer.seal+unseal/page" page;
      seal_unseal "sealer.seal+unseal/payload" payload;
    ]
  in
  List.map
    (fun (name, new_op, ref_op) ->
      let new_ns, new_alloc = time_alloc ~iters new_op in
      let ref_ns, ref_alloc = time_alloc ~iters ref_op in
      {
        mi_name = name;
        mi_iters = iters;
        mi_new_ns = new_ns;
        mi_new_alloc = new_alloc;
        mi_ref_ns = ref_ns;
        mi_ref_alloc = ref_alloc;
      })
    cases

(* --- matrix section --------------------------------------------------- *)

(* One cell = one fresh platform: a self-paging enclave under the given
   policy and paging mechanism, driven by a fixed-seed workload at the
   builder's perf-cell geometry. *)
let run_cell ~workload ~policy ~mech ~seed ~ops =
  let sys, op = Builder.build (Builder.spec ~mech policy) workload ~seed in
  let acc0 = Sgx.Cpu.accesses (System.cpu sys) in
  (* Start the measured phase from a compacted heap.  On OCaml 5.1 the
     minor-word count over a phase grows with the minor collections that
     fall inside it, far beyond what the phase allocates (one cell: 81,602
     words with none, 540k-794k with two to four), so
     [Gc.allocated_bytes] depends on what ran before: the same cell read
     58 to 82 B/access over four runs in one process.  From the same
     collector state the figure repeats (within a few % for the clusters
     cells): a repeatable figure, not an exact word count. *)
  Gc.compact ();
  let a0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let r =
    Measure.run sys (fun () ->
        for i = 1 to ops do
          op i
        done)
  in
  let wall_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
  let alloc_bytes = Gc.allocated_bytes () -. a0 in
  (* Per-access figures divide by the VM accesses the ops actually
     performed (one kvstore get is ~17 accesses), not by ops — the
     original report divided by ops under a *_per_access name, inflating
     every figure by the accesses-per-op factor. *)
  let accesses = Sgx.Cpu.accesses (System.cpu sys) - acc0 in
  let n = float_of_int (max 1 accesses) in
  {
    mx_workload = Builder.workload_name workload;
    mx_policy = Builder.policy_name policy;
    mx_mech = Builder.mech_name mech;
    mx_ops = ops;
    mx_accesses = accesses;
    mx_wall_ns = wall_ns /. n;
    mx_alloc = alloc_bytes /. n;
    mx_cycles = float_of_int r.Measure.cycles /. n;
    mx_faults = r.Measure.page_faults;
  }

(* The matrix is embarrassingly parallel: every cell builds a fresh
   platform (own counters, clock, trace-free) and the simulator keeps
   no cross-platform state, so cells shard across domains with results
   merged back in cell order — modeled cycles, faults and allocation
   are bit-identical at any [jobs]; only the wall fields move. *)
let matrix_cells ~quick =
  let workloads = Builder.(if quick then [ Ycsb ] else [ Ycsb; Uthash; Kvstore ]) in
  let policies = Builder.[ Rate_limit; Clusters; Oram ] in
  let mechs = [ `Sgx1; `Sgx2 ] in
  List.concat_map
    (fun workload ->
      List.concat_map
        (fun policy -> List.map (fun mech -> (workload, policy, mech)) mechs)
        policies)
    workloads

let matrix_ops ~quick = if quick then 1_000 else 8_000

let matrix_section ~quick ~seed ~jobs =
  let ops = matrix_ops ~quick in
  Parallel.Pool.map ~jobs
    (fun (workload, policy, mech) -> run_cell ~workload ~policy ~mech ~seed ~ops)
    (matrix_cells ~quick)

(* --- JSON ------------------------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json r =
  let b = Buffer.create 4_096 in
  let f = Printf.sprintf "%.2f" in
  Buffer.add_string b "{\n";
  (* /2: per-access figures divide by true VM accesses (an "accesses"
     field records the divisor); /1 divided by ops under the same
     field names. *)
  Buffer.add_string b "  \"schema\": \"autarky-perf/2\",\n";
  Buffer.add_string b (Printf.sprintf "  \"quick\": %b,\n" r.r_quick);
  Buffer.add_string b (Printf.sprintf "  \"seed\": %d,\n" r.r_seed);
  Buffer.add_string b (Printf.sprintf "  \"page_bytes\": %d,\n" page_bytes);
  (* Wall metadata lives in one clearly-named object: everything under
     "wall" (plus the *wall* per-row fields) is machine-dependent and
     excluded from determinism/regression comparison. *)
  Buffer.add_string b
    (Printf.sprintf "  \"wall\": {\"jobs\": %d, \"matrix_s\": %s},\n" r.r_jobs
       (f r.r_matrix_wall_s));
  Buffer.add_string b "  \"micro\": [\n";
  List.iteri
    (fun i m ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"name\": \"%s\", \"iters\": %d, \"new_wall_ns_per_op\": %s, \
            \"new_alloc_bytes_per_op\": %s, \"ref_wall_ns_per_op\": %s, \
            \"ref_alloc_bytes_per_op\": %s, \"speedup_wall\": %s}%s\n"
           (json_escape m.mi_name) m.mi_iters (f m.mi_new_ns) (f m.mi_new_alloc)
           (f m.mi_ref_ns) (f m.mi_ref_alloc)
           (f (speedup m))
           (if i = List.length r.r_micro - 1 then "" else ",")))
    r.r_micro;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b "  \"matrix\": [\n";
  List.iteri
    (fun i m ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"workload\": \"%s\", \"policy\": \"%s\", \"mech\": \"%s\", \
            \"ops\": %d, \"accesses\": %d, \"wall_ns_per_access\": %s, \
            \"alloc_bytes_per_access\": %s, \"modeled_cycles_per_access\": %s, \
            \"page_faults\": %d}%s\n"
           (json_escape m.mx_workload) (json_escape m.mx_policy)
           (json_escape m.mx_mech) m.mx_ops m.mx_accesses (f m.mx_wall_ns)
           (f m.mx_alloc) (f m.mx_cycles) m.mx_faults
           (if i = List.length r.r_matrix - 1 then "" else ",")))
    r.r_matrix;
  Buffer.add_string b "  ]\n";
  Buffer.add_string b "}\n";
  Buffer.contents b

(* --- driver ----------------------------------------------------------- *)

let print_summary r =
  Printf.printf "perf: crypto microbenchmarks (%s mode)\n"
    (if r.r_quick then "quick" else "full");
  Printf.printf "  %-26s %12s %12s %10s %14s\n" "op" "new ns/op" "ref ns/op"
    "speedup" "new alloc B/op";
  List.iter
    (fun m ->
      Printf.printf "  %-26s %12.0f %12.0f %9.1fx %14.0f\n" m.mi_name m.mi_new_ns
        m.mi_ref_ns (speedup m) m.mi_new_alloc)
    r.r_micro;
  Printf.printf "perf: workload matrix (seed %d)\n" r.r_seed;
  Printf.printf "  %-9s %-11s %-5s %12s %12s %14s %8s\n" "workload" "policy"
    "mech" "wall ns/acc" "alloc B/acc" "cycles/acc" "faults";
  List.iter
    (fun m ->
      Printf.printf "  %-9s %-11s %-5s %12.0f %12.1f %14.0f %8d\n" m.mx_workload
        m.mx_policy m.mx_mech m.mx_wall_ns m.mx_alloc m.mx_cycles m.mx_faults)
    r.r_matrix

let run ?(quick = false) ?(seed = 42) ?(jobs = 1) ?out () =
  let micro = micro_section ~quick in
  let t0 = Unix.gettimeofday () in
  let matrix = matrix_section ~quick ~seed ~jobs in
  let matrix_wall_s = Unix.gettimeofday () -. t0 in
  let r =
    {
      r_quick = quick;
      r_seed = seed;
      r_jobs = (if jobs <= 0 then Parallel.Pool.default_jobs () else jobs);
      r_matrix_wall_s = matrix_wall_s;
      r_micro = micro;
      r_matrix = matrix;
    }
  in
  print_summary r;
  Printf.printf "perf: matrix wall %.2f s at %d job(s)\n" r.r_matrix_wall_s
    r.r_jobs;
  (match out with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    output_string oc (to_json r);
    close_out oc;
    Printf.printf "perf: wrote %s\n" file);
  r

(* --- regression gate --------------------------------------------------- *)

(* A matrix cell as the gate sees it: identity (workload/policy/mech),
   the deterministic measurements (ops, modeled cycles, faults) that
   are compared, and the informational wall figure. *)
type gate_cell = {
  g_key : string * string * string;
  g_ops : int;
  g_accesses : int;
  g_cycles : float;
  g_faults : int;
  g_wall_ns : float;
  g_alloc : float;
}

let gate_cells_of_json ~ctx j =
  let open Microjson in
  mem_exn ~ctx "matrix" j |> arr ~ctx
  |> List.map (fun cell ->
         let field k = mem_exn ~ctx:(ctx ^ ".matrix") k cell in
         let s k = str ~ctx (field k) in
         {
           g_key = (s "workload", s "policy", s "mech");
           g_ops = int_ ~ctx (field "ops");
           g_accesses = int_ ~ctx (field "accesses");
           g_cycles = num ~ctx (field "modeled_cycles_per_access");
           g_faults = int_ ~ctx (field "page_faults");
           g_wall_ns = num ~ctx (field "wall_ns_per_access");
           g_alloc = num ~ctx (field "alloc_bytes_per_access");
         })

(* A fresh run's cycles are rounded as [to_json] writes them, so that a
   file and a fresh run of the same build compare equal at tolerance 0. *)
let gate_cells_of_rows rows =
  List.map
    (fun m ->
      {
        g_key = (m.mx_workload, m.mx_policy, m.mx_mech);
        g_ops = m.mx_ops;
        g_accesses = m.mx_accesses;
        g_cycles = float_of_string (Printf.sprintf "%.2f" m.mx_cycles);
        g_faults = m.mx_faults;
        g_wall_ns = m.mx_wall_ns;
        g_alloc = m.mx_alloc;
      })
    rows

let key_name (w, p, m) = Printf.sprintf "%s/%s/%s" w p m

(* Relative drift, symmetric-safe for zero baselines. *)
let drift ~base ~cur =
  if base = 0.0 then (if cur = 0.0 then 0.0 else infinity)
  else Float.abs (cur -. base) /. Float.abs base

(* The two sides of the gate: the baseline's cells, the current cells
   with their label, and — when the current side is a fresh run — a way
   to measure one cell's allocation again on its own.  Unreadable or
   malformed input raises [Failure], [Microjson.Parse_error] or
   [Sys_error]. *)
let gate_inputs ~baseline ?against ~jobs () =
  let load path =
    let j =
      try Microjson.of_file path
      with Microjson.Parse_error m -> failwith (path ^ ": parse error: " ^ m)
    in
    (match Microjson.(member "schema" j) with
    | Some (Microjson.Str "autarky-perf/2") -> ()
    | _ -> failwith (path ^ ": not an autarky-perf/2 report"));
    j
  in
  let bj = load baseline in
  let base = gate_cells_of_json ~ctx:baseline bj in
  let cur, cur_label, remeasure =
    match against with
    | Some path -> (gate_cells_of_json ~ctx:path (load path), path, None)
    | None ->
      (* Re-run the matrix at the baseline's own shape and seed so the
         comparison is cell-for-cell.  The micro section is skipped:
         the gate is about modeled cycles; wall-clock micro numbers
         cannot gate anything on a shared CI runner. *)
      let quick = Microjson.(bool_ ~ctx:baseline (mem_exn ~ctx:baseline "quick" bj)) in
      let seed = Microjson.(int_ ~ctx:baseline (mem_exn ~ctx:baseline "seed" bj)) in
      Printf.printf "perf: re-running the %s matrix (seed %d) against %s\n%!"
        (if quick then "quick" else "full")
        seed baseline;
      let ops = matrix_ops ~quick in
      let alone (workload, policy, mech) =
        let parse of_name name = Option.get (of_name name) in
        (run_cell ~seed ~ops
           ~workload:(parse Builder.workload_of_name workload)
           ~policy:(parse Builder.policy_of_name policy)
           ~mech:(parse Builder.mech_of_name mech))
          .mx_alloc
      in
      (gate_cells_of_rows (matrix_section ~quick ~seed ~jobs), "this run", Some alone)
  in
  (base, cur, cur_label, remeasure)

let compare_cells ~baseline ~tolerance ?wall_ceiling_ns ?alloc_ceiling ?remeasure
    base cur cur_label =
  let assoc cells = List.map (fun c -> (c.g_key, c)) cells in
  let base_a = assoc base and cur_a = assoc cur in
  let failures = ref [] in
  let fail_cell fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k cur_a) then
        fail_cell "cell %s missing from %s" (key_name k) cur_label)
    base_a;
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k base_a) then
        fail_cell "cell %s not in baseline" (key_name k))
    cur_a;
  Printf.printf "  %-22s %14s %14s %8s %9s  %s\n" "cell" "base cyc/acc"
    "cur cyc/acc" "drift" "faults" "verdict";
  List.iter
    (fun (k, b) ->
      match List.assoc_opt k cur_a with
      | None -> ()
      | Some c ->
        let d = drift ~base:b.g_cycles ~cur:c.g_cycles in
        let fd =
          drift ~base:(float_of_int b.g_faults) ~cur:(float_of_int c.g_faults)
        in
        let bad = ref [] in
        if c.g_ops <> b.g_ops then
          bad := Printf.sprintf "ops %d vs %d" b.g_ops c.g_ops :: !bad;
        if c.g_accesses <> b.g_accesses then
          bad :=
            Printf.sprintf "accesses %d vs %d" b.g_accesses c.g_accesses :: !bad;
        if d > tolerance then bad := Printf.sprintf "cycles drift %.1f%%" (100. *. d) :: !bad;
        if fd > tolerance then bad := Printf.sprintf "faults drift %.1f%%" (100. *. fd) :: !bad;
        Printf.printf "  %-22s %14.0f %14.0f %7.1f%% %4d/%-4d  %s\n" (key_name k)
          b.g_cycles c.g_cycles (100.0 *. d) b.g_faults c.g_faults
          (if !bad = [] then "ok" else "REGRESSION");
        if !bad <> [] then
          fail_cell "cell %s: %s" (key_name k) (String.concat ", " !bad))
    base_a;
  (* Absolute ceilings locking in the flat-core speedup.  The wall
     ceiling applies to the current run's rate-limit cells (the cells
     the rewrite targets; wall time is machine-dependent, so the bound
     is generous).  The alloc ceiling bounds the matrix-median
     allocation per access, and also holds every cell to its baseline
     cell within [tolerance].  A cell's allocation repeats when it runs
     alone, but a cell sharded next to others can come out inflated
     (3.9 -> 136 B/access seen at --jobs 2: the other domains' collections
     interrupt it), so a fresh-run cell over its bound is measured again
     alone before it fails. *)
  (match wall_ceiling_ns with
  | None -> ()
  | Some ceiling ->
    List.iter
      (fun c ->
        let _, policy, _ = c.g_key in
        if policy = "rate-limit" && c.g_wall_ns > ceiling then
          fail_cell "cell %s: wall %.0f ns/access exceeds ceiling %.0f"
            (key_name c.g_key) c.g_wall_ns ceiling)
      cur);
  (match alloc_ceiling with
  | None -> ()
  | Some ceiling ->
    let sorted = List.sort Float.compare (List.map (fun c -> c.g_alloc) cur) in
    let n = List.length sorted in
    if n > 0 then begin
      let median =
        if n mod 2 = 1 then List.nth sorted (n / 2)
        else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.0
      in
      Printf.printf "perf: matrix median alloc %.1f B/access (ceiling %.0f)\n"
        median ceiling;
      if median > ceiling then
        fail_cell "matrix median alloc %.1f B/access exceeds ceiling %.0f" median
          ceiling
    end;
    List.iter
      (fun (k, b) ->
        let limit = b.g_alloc *. (1.0 +. tolerance) in
        match List.assoc_opt k cur_a with
        | Some c when c.g_alloc > limit ->
          let alloc =
            match remeasure with
            | None -> c.g_alloc
            | Some alone ->
              let a = alone k in
              Printf.printf "perf: cell %s alloc %.1f B/access in the matrix run, %.1f alone\n"
                (key_name k) c.g_alloc a;
              a
          in
          if alloc > limit then
            fail_cell "cell %s: alloc %.1f B/access exceeds baseline %.1f by more than %.0f%%"
              (key_name k) alloc b.g_alloc (100.0 *. tolerance)
        | _ -> ())
      base_a);
  let ok = !failures = [] in
  if ok then
    Printf.printf "perf: %d cells within %.0f%% of %s (%s)\n"
      (List.length base_a) (100.0 *. tolerance) baseline
      (if wall_ceiling_ns <> None || alloc_ceiling <> None then
         "wall/alloc ceilings enforced"
       else "wall/alloc informational only")
  else begin
    Printf.printf "perf: regression gate FAILED against %s:\n" baseline;
    List.iter (fun m -> Printf.printf "  - %s\n" m) (List.rev !failures)
  end;
  ok

let check ~baseline ?against ?(tolerance = 0.25) ?wall_ceiling_ns ?alloc_ceiling
    ?(jobs = 1) () =
  match gate_inputs ~baseline ?against ~jobs () with
  | exception (Failure m | Microjson.Parse_error m | Sys_error m) ->
    Printf.printf "perf: CHECK FAILED: %s\n" m;
    false
  | base, cur, cur_label, remeasure ->
    compare_cells ~baseline ~tolerance ?wall_ceiling_ns ?alloc_ceiling ?remeasure
      base cur cur_label
