(* Tests for the auto-clustering allocator and the trusted loader. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let make ?(pages = 64) ?(cluster_pages = 4) () =
  let clusters = Autarky.Clusters.create () in
  ( Autarky.Allocator.create ~clusters ~base_vpage:0x1000 ~pages ~cluster_pages,
    clusters )

let test_alloc_pages_sequential () =
  let a, _ = make () in
  let p1 = Autarky.Allocator.alloc_page a in
  let p2 = Autarky.Allocator.alloc_page a in
  checki "first page" 0x1000 p1;
  checki "second page" 0x1001 p2;
  checki "in use" 2 (Autarky.Allocator.pages_in_use a)

let test_auto_clustering () =
  let a, cl = make ~cluster_pages:4 () in
  let ps = List.init 10 (fun _ -> Autarky.Allocator.alloc_page a) in
  (* Pages 0-3 share a cluster; 4-7 share a second; 8-9 a third. *)
  let c0 = Autarky.Clusters.ay_get_cluster_ids cl (List.nth ps 0) in
  let c3 = Autarky.Clusters.ay_get_cluster_ids cl (List.nth ps 3) in
  let c4 = Autarky.Clusters.ay_get_cluster_ids cl (List.nth ps 4) in
  let c8 = Autarky.Clusters.ay_get_cluster_ids cl (List.nth ps 8) in
  checkb "0 and 3 together" true (c0 = c3);
  checkb "3 and 4 apart" false (c3 = c4);
  checkb "4 and 8 apart" false (c4 = c8)

let test_object_allocation_no_straddle () =
  let a, _ = make () in
  (* 256-byte objects: 16 per page, never straddling. *)
  for _ = 1 to 40 do
    let addr = Autarky.Allocator.alloc a ~bytes:256 in
    let first_page = addr / Sgx.Types.page_bytes in
    let last_page = (addr + 255) / Sgx.Types.page_bytes in
    checki "no straddle" first_page last_page
  done;
  checki "40 objects in 3 pages" 3 (Autarky.Allocator.pages_in_use a)

let test_multi_page_object () =
  let a, _ = make () in
  let addr = Autarky.Allocator.alloc a ~bytes:(3 * Sgx.Types.page_bytes) in
  checki "page aligned" 0 (addr mod Sgx.Types.page_bytes);
  checki "three pages" 3 (Autarky.Allocator.pages_in_use a)

let test_exhaustion () =
  let a, _ = make ~pages:2 () in
  ignore (Autarky.Allocator.alloc_page a);
  ignore (Autarky.Allocator.alloc_page a);
  checkb "out of memory" true
    (try ignore (Autarky.Allocator.alloc_page a); false
     with Out_of_memory -> true)

let test_free_and_reuse () =
  let a, cl = make () in
  let p = Autarky.Allocator.alloc_page a in
  Autarky.Allocator.free_page a p;
  checkb "deregistered from clusters" false (Autarky.Clusters.registered cl p);
  checki "not in use" 0 (Autarky.Allocator.pages_in_use a);
  let p' = Autarky.Allocator.alloc_page a in
  checki "page recycled" p p'

let test_merge_on_free () =
  let a, cl = make ~cluster_pages:4 () in
  let ps = Array.init 12 (fun _ -> Autarky.Allocator.alloc_page a) in
  (* Empty out most of the first two clusters so both fall to <= half. *)
  Autarky.Allocator.free_page a ps.(0);
  Autarky.Allocator.free_page a ps.(1);
  Autarky.Allocator.free_page a ps.(4);
  Autarky.Allocator.free_page a ps.(5);
  Autarky.Allocator.free_page a ps.(6);
  (* Remaining pages of the first two clusters now share one. *)
  let c2 = Autarky.Clusters.ay_get_cluster_ids cl ps.(2) in
  let c7 = Autarky.Clusters.ay_get_cluster_ids cl ps.(7) in
  checkb "sparse clusters merged" true (c2 <> [] && c2 = c7)

let test_allocated_pages_listing () =
  let a, _ = make () in
  let ps = List.init 5 (fun _ -> Autarky.Allocator.alloc_page a) in
  checkb "listing matches" true
    (Autarky.Allocator.allocated_pages a = List.sort compare ps)

(* --- Loader ------------------------------------------------------------ *)

let test_loader_one_cluster_per_library () =
  let clusters = Autarky.Clusters.create () in
  let loader = Autarky.Loader.create ~clusters in
  let libc = Autarky.Loader.load_library loader ~name:"libc" ~pages:[ 1; 2; 3 ] () in
  let libjpeg =
    Autarky.Loader.load_library loader ~name:"libjpeg" ~pages:[ 10; 11 ] ()
  in
  checkb "libc cluster holds its pages" true
    (List.sort compare (Autarky.Clusters.pages_of clusters libc.lib_cluster)
    = [ 1; 2; 3 ]);
  checkb "separate clusters" true (libc.lib_cluster <> libjpeg.lib_cluster);
  (* Faulting any libc page fetches all of libc, none of libjpeg. *)
  let fs = Autarky.Clusters.fetch_set clusters 2 in
  checkb "whole library" true (fs = [| 1; 2; 3 |])

let test_loader_dependency_sharing () =
  let clusters = Autarky.Clusters.create () in
  let loader = Autarky.Loader.create ~clusters in
  let libm = Autarky.Loader.load_library loader ~name:"libm" ~pages:[ 20 ] () in
  let app1 =
    Autarky.Loader.load_library loader ~name:"app1" ~pages:[ 30 ] ~deps:[ libm ] ()
  in
  let app2 =
    Autarky.Loader.load_library loader ~name:"app2" ~pages:[ 40 ] ~deps:[ libm ] ()
  in
  ignore app1;
  ignore app2;
  (* libm's page is shared: faulting app1 pulls libm, and transitively
     app2 (they share libm's page) — the invariant-safe behaviour. *)
  let fs = Autarky.Clusters.fetch_set clusters 30 in
  checkb "dep pulled" true (Array.mem 20 fs);
  checkb "transitive sharing pulled" true (Array.mem 40 fs)

let test_loader_function_granularity () =
  let clusters = Autarky.Clusters.create () in
  let loader = Autarky.Loader.create ~clusters in
  let fns =
    Autarky.Loader.load_functions loader ~name:"libz"
      ~functions:[ ("inflate", [ 50; 51 ]); ("deflate", [ 52 ]) ]
  in
  checki "two clusters" 2 (List.length fns);
  checkb "independent fetch" true (Autarky.Clusters.fetch_set clusters 52 = [| 52 |])

let test_loader_lookup () =
  let clusters = Autarky.Clusters.create () in
  let loader = Autarky.Loader.create ~clusters in
  ignore (Autarky.Loader.load_library loader ~name:"a" ~pages:[ 1 ] ());
  ignore (Autarky.Loader.load_library loader ~name:"b" ~pages:[ 2 ] ());
  checkb "find a" true (Autarky.Loader.find loader "a" <> None);
  checkb "find missing" true (Autarky.Loader.find loader "zz" = None);
  checkb "code pages" true (Autarky.Loader.code_pages loader = [ 1; 2 ])

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck2.Test.make ~name:"allocator never hands out a page twice" ~count:100
        QCheck2.Gen.(list_size (int_range 1 100) bool)
        (fun ops ->
          let a, _ = make ~pages:200 () in
          let live = Hashtbl.create 64 in
          List.for_all
            (fun is_alloc ->
              if is_alloc then begin
                let p = Autarky.Allocator.alloc_page a in
                if Hashtbl.mem live p then false
                else begin
                  Hashtbl.replace live p ();
                  true
                end
              end
              else begin
                (match Hashtbl.fold (fun k () _ -> Some k) live None with
                | Some p ->
                  Autarky.Allocator.free_page a p;
                  Hashtbl.remove live p
                | None -> ());
                true
              end)
            ops);
      QCheck2.Test.make ~name:"sub-page objects never straddle pages" ~count:100
        QCheck2.Gen.(list_size (int_range 1 60) (int_range 1 4096))
        (fun sizes ->
          let a, _ = make ~pages:300 () in
          List.for_all
            (fun bytes ->
              let addr = Autarky.Allocator.alloc a ~bytes in
              bytes >= Sgx.Types.page_bytes
              || addr / Sgx.Types.page_bytes
                 = (addr + bytes - 1) / Sgx.Types.page_bytes)
            sizes);
    ]

(* --- argument checks ---------------------------------------------- *)

let test_create_rejects_pages () =
  Helpers.check_invalid_arg ~naming:": pages must" (fun () -> make ~pages:0 ())

let test_create_rejects_cluster_pages () =
  Helpers.check_invalid_arg ~naming:"cluster_pages" (fun () ->
      make ~cluster_pages:0 ())

let test_alloc_rejects_bytes () =
  let a, _ = make () in
  Helpers.check_invalid_arg ~naming:"bytes" (fun () ->
      Autarky.Allocator.alloc a ~bytes:0)

let suite =
  [
    ("create rejects zero pages", `Quick, test_create_rejects_pages);
    ("create rejects zero cluster_pages", `Quick, test_create_rejects_cluster_pages);
    ("alloc rejects zero bytes", `Quick, test_alloc_rejects_bytes);
    ("alloc pages sequential", `Quick, test_alloc_pages_sequential);
    ("auto clustering", `Quick, test_auto_clustering);
    ("objects never straddle", `Quick, test_object_allocation_no_straddle);
    ("multi-page object", `Quick, test_multi_page_object);
    ("exhaustion", `Quick, test_exhaustion);
    ("free and reuse", `Quick, test_free_and_reuse);
    ("merge on free", `Quick, test_merge_on_free);
    ("allocated pages listing", `Quick, test_allocated_pages_listing);
    ("loader: one cluster per library", `Quick, test_loader_one_cluster_per_library);
    ("loader: dependency sharing", `Quick, test_loader_dependency_sharing);
    ("loader: function granularity", `Quick, test_loader_function_granularity);
    ("loader: lookup", `Quick, test_loader_lookup);
  ]
  @ qcheck_cases
