type policy = Baseline | Rate_limit | Clusters | Oram

let all_policies = [ Baseline; Rate_limit; Clusters; Oram ]

let policy_name = function
  | Baseline -> "baseline"
  | Rate_limit -> "rate-limit"
  | Clusters -> "clusters"
  | Oram -> "oram"

let policy_of_name = function
  | "baseline" -> Some Baseline
  | "rate-limit" -> Some Rate_limit
  | "clusters" -> Some Clusters
  | "oram" -> Some Oram
  | _ -> None

type config = {
  policy : policy;
  mech : Autarky.Pager.mech;
  symbols : int;
  alphabet : int;
  seed : int;
}

type outcome = Completed | Terminated of string

type t = {
  cfg : config;
  sys : Harness.System.t;
  secret : int array;
  vic_scratch : Sgx.Types.vpage;
  vic_marker : Sgx.Types.vpage;
  vic_code_base : Sgx.Types.vpage;
  data_pages : Sgx.Types.vpage array;
  symbol_of_data : (Sgx.Types.vpage, int) Hashtbl.t;
  vm : Workloads.Vm.t;
  vic_digest : unit -> string;
  mutable ran : bool;
}

(* Address-space layout (in reserve order): the first [epc_limit] image
   pages are initially EPC-resident, so the pad region is sized to put
   the data region exactly at the residence boundary — no data page
   starts resident (its first touch is an observable demand fetch), and
   the pad pages stay OS-managed to give the kernel evictable working
   room. *)
let pad_pages = 16

let create cfg =
  if cfg.symbols <= 0 then invalid_arg "Victim.create: symbols must be positive";
  if cfg.alphabet < 2 then invalid_arg "Victim.create: alphabet must be >= 2";
  let n = cfg.alphabet in
  let self_paging = cfg.policy <> Baseline in
  let mech = if self_paging then cfg.mech else `Sgx1 in
  let cache_pages = if cfg.policy = Oram then 2 * n else 0 in
  (* The budget holds the whole working set — pinned pages plus every
     data page — so the pager never evicts on its own.  FIFO eviction
     would reach the pinned pages first (they are the oldest residents),
     and an SGXv2 refetch maps pages RW (EACCEPTCOPY), which would cost
     a refetched code page its exec permission.  Self-inflicted churn is
     not a channel under study; attackers that want eviction force it. *)
  let budget = 2 + n + cache_pages + n + 8 in
  let epc_limit = if self_paging then budget + 8 else 2 + n + pad_pages in
  let enclave_pages = epc_limit + n in
  let sys =
    Harness.System.create ~mech ~trace:true ~epc_frames:(epc_limit + 64)
      ~epc_limit ~enclave_pages ~self_paging
      ?budget:(if self_paging then Some budget else None)
      ()
  in
  let sink, digest = Trace.Sink.digest () in
  Trace.Recorder.add_sink (Harness.System.tracer_exn sys) sink;
  let scratch = Harness.System.reserve sys ~pages:1 in
  let marker = Harness.System.reserve sys ~pages:1 in
  let code_base = Harness.System.reserve sys ~pages:n in
  let cache_base =
    if cache_pages > 0 then Harness.System.reserve sys ~pages:cache_pages
    else 0
  in
  let pad = epc_limit - (2 + n + cache_pages) in
  let (_ : Sgx.Types.vpage) = Harness.System.reserve sys ~pages:pad in
  let cluster_pages = match cfg.policy with Clusters -> 4 | _ -> 1 in
  let heap = Harness.System.allocator sys ~pages:n ~cluster_pages in
  let base = (Harness.System.enclave sys).Sgx.Enclave.base_vpage in
  assert (Autarky.Allocator.base_vpage heap = base + epc_limit);
  let data_pages = Array.init n (fun _ -> Autarky.Allocator.alloc_page heap) in
  let symbol_of_data = Hashtbl.create n in
  Array.iteri (fun i vp -> Hashtbl.replace symbol_of_data vp i) data_pages;
  let rng = Metrics.Rng.create ~seed:(Int64.of_int cfg.seed) in
  let secret = Array.init cfg.symbols (fun _ -> Metrics.Rng.int rng n) in
  let progress_hook = ref (fun () -> ()) in
  let instrument = ref None in
  let pinned = scratch :: marker :: List.init n (fun i -> code_base + i) in
  (match cfg.policy with
  | Baseline -> ()
  | Rate_limit ->
    let rt = Harness.System.runtime_exn sys in
    Harness.System.pin sys pinned;
    (* Worst-case legitimate faults per request: one data fetch plus
       refetches of thrashed pinned pages — far below 64. *)
    let rl =
      Autarky.Policy_rate_limit.create ~runtime:rt ~max_faults_per_unit:64 ()
    in
    progress_hook := (fun () -> Autarky.Policy_rate_limit.progress rl);
    Harness.System.manage sys (Array.to_list data_pages);
    Autarky.Runtime.set_policy rt (Autarky.Policy_rate_limit.policy rl)
  | Clusters ->
    let rt = Harness.System.runtime_exn sys in
    Harness.System.pin sys pinned;
    let pc =
      Autarky.Policy_clusters.create ~runtime:rt
        ~clusters:(Autarky.Allocator.clusters heap)
    in
    Harness.System.manage sys (Array.to_list data_pages);
    Autarky.Runtime.set_policy rt (Autarky.Policy_clusters.policy pc)
  | Oram ->
    let rt = Harness.System.runtime_exn sys in
    Harness.System.pin sys pinned;
    let oram =
      Oram.Path_oram.create ~clock:(Harness.System.clock sys)
        ~rng:(Metrics.Rng.create ~seed:(Int64.of_int (cfg.seed + 977)))
        ~n_blocks:n ()
    in
    let cache =
      Autarky.Oram_cache.create ~machine:(Harness.System.machine sys)
        ~enclave:(Harness.System.enclave sys)
        ~touch:(fun a k -> Sgx.Cpu.access (Harness.System.cpu sys) a k)
        ~oram
        ~data_base_vpage:(Autarky.Allocator.base_vpage heap)
        ~n_pages:n ~cache_base_vpage:cache_base ~capacity_pages:cache_pages ()
    in
    Harness.System.pin sys (List.init cache_pages (fun i -> cache_base + i));
    let pol = Autarky.Policy_oram.create ~runtime:rt ~cache in
    instrument :=
      Some
        (Autarky.Policy_oram.accessor pol ~fallback:(fun a k ->
             Sgx.Cpu.access (Harness.System.cpu sys) a k));
    Autarky.Runtime.set_policy rt (Autarky.Policy_oram.policy pol));
  let vm =
    match !instrument with
    | Some i ->
      Harness.System.vm sys ~instrument:i
        ~on_progress:(fun () -> !progress_hook ())
        ()
    | None ->
      Harness.System.vm sys ~on_progress:(fun () -> !progress_hook ()) ()
  in
  {
    cfg;
    sys;
    secret;
    vic_scratch = scratch;
    vic_marker = marker;
    vic_code_base = code_base;
    data_pages;
    symbol_of_data;
    vm;
    vic_digest = digest;
    ran = false;
  }

(* One request: [s + 1] scratch reads, the marker read, then scratch
   reads up to a constant total, the symbol's code page, the symbol's
   data page.  Total accesses are [alphabet + 4] for every symbol —
   only the *position* of the marker access, the code page and the data
   page depend on the secret. *)
let request t r =
  let n = t.cfg.alphabet in
  let s = t.secret.(r) in
  let scratch_a = Sgx.Types.vaddr_of_vpage t.vic_scratch in
  for _ = 0 to s do
    t.vm.Workloads.Vm.read scratch_a
  done;
  t.vm.Workloads.Vm.read (Sgx.Types.vaddr_of_vpage t.vic_marker);
  for _ = 1 to n - s do
    t.vm.Workloads.Vm.read scratch_a
  done;
  t.vm.Workloads.Vm.exec (Sgx.Types.vaddr_of_vpage (t.vic_code_base + s));
  t.vm.Workloads.Vm.read (Sgx.Types.vaddr_of_vpage t.data_pages.(s));
  t.vm.Workloads.Vm.progress ()

let run t ~before ~after =
  if t.ran then invalid_arg "Victim.run: a victim can only be run once";
  t.ran <- true;
  try
    for r = 0 to t.cfg.symbols - 1 do
      before r;
      Harness.System.run_in_enclave t.sys (fun () -> request t r);
      after r
    done;
    Completed
  with Sgx.Types.Enclave_terminated { reason; _ } -> Terminated reason

let config t = t.cfg
let alphabet t = t.cfg.alphabet
let symbols t = t.cfg.symbols
let policy t = t.cfg.policy
let scratch t = t.vic_scratch
let marker t = t.vic_marker
let code_base t = t.vic_code_base

let data_page t s =
  if s < 0 || s >= t.cfg.alphabet then invalid_arg "Victim.data_page";
  t.data_pages.(s)

let symbol_of_data_vpage t vp = Hashtbl.find_opt t.symbol_of_data vp

let symbol_of_code_vpage t vp =
  if vp >= t.vic_code_base && vp < t.vic_code_base + t.cfg.alphabet then
    Some (vp - t.vic_code_base)
  else None

let sys t = t.sys
let os t = Harness.System.os t.sys
let proc t = Harness.System.proc t.sys
let cpu t = Harness.System.cpu t.sys
let secret t = Array.copy t.secret
let digest t = t.vic_digest ()
