type spec = {
  k_name : string;
  suite : [ `Phoenix | `Parsec ];
  ws_pages : int;
  hot_pages : int;
  cold_fraction : float;
  write_fraction : float;
  compute_per_access : int;
  accesses_per_unit : int;
}

(* Working sets are sized against the experiment's ~100 MB EPC
   (25600 frames); cold fractions are set so the fault-rate spread
   matches Fig. 7's: near zero for in-EPC applications, heavy paging for
   canneal/dedup-class ones. *)
let suite =
  [
    { k_name = "kmeans"; suite = `Phoenix; ws_pages = 18_000; hot_pages = 1_500;
      cold_fraction = 0.002; write_fraction = 0.10; compute_per_access = 40;
      accesses_per_unit = 2_000 };
    { k_name = "linreg"; suite = `Phoenix; ws_pages = 12_000; hot_pages = 1_000;
      cold_fraction = 0.001; write_fraction = 0.05; compute_per_access = 30;
      accesses_per_unit = 2_000 };
    { k_name = "wcount"; suite = `Phoenix; ws_pages = 30_000; hot_pages = 1_500;
      cold_fraction = 0.0019; write_fraction = 0.20; compute_per_access = 35;
      accesses_per_unit = 2_000 };
    { k_name = "pca"; suite = `Phoenix; ws_pages = 20_000; hot_pages = 2_000;
      cold_fraction = 0.002; write_fraction = 0.10; compute_per_access = 50;
      accesses_per_unit = 2_000 };
    { k_name = "smatch"; suite = `Phoenix; ws_pages = 32_000; hot_pages = 1_200;
      cold_fraction = 0.0021; write_fraction = 0.05; compute_per_access = 30;
      accesses_per_unit = 2_000 };
    { k_name = "mmult"; suite = `Phoenix; ws_pages = 22_000; hot_pages = 2_500;
      cold_fraction = 0.001; write_fraction = 0.10; compute_per_access = 45;
      accesses_per_unit = 2_000 };
    { k_name = "btrack"; suite = `Parsec; ws_pages = 16_000; hot_pages = 1_800;
      cold_fraction = 0.001; write_fraction = 0.15; compute_per_access = 60;
      accesses_per_unit = 2_000 };
    { k_name = "canneal"; suite = `Parsec; ws_pages = 60_000; hot_pages = 1_000;
      cold_fraction = 0.0037; write_fraction = 0.30; compute_per_access = 35;
      accesses_per_unit = 2_000 };
    { k_name = "scluster"; suite = `Parsec; ws_pages = 35_000; hot_pages = 1_500;
      cold_fraction = 0.00134; write_fraction = 0.25; compute_per_access = 40;
      accesses_per_unit = 2_000 };
    { k_name = "swap"; suite = `Parsec; ws_pages = 8_000; hot_pages = 1_000;
      cold_fraction = 0.0005; write_fraction = 0.10; compute_per_access = 80;
      accesses_per_unit = 2_000 };
    { k_name = "dedup"; suite = `Parsec; ws_pages = 45_000; hot_pages = 1_200;
      cold_fraction = 0.002; write_fraction = 0.30; compute_per_access = 30;
      accesses_per_unit = 2_000 };
    { k_name = "bscholes"; suite = `Parsec; ws_pages = 27_000; hot_pages = 1_400;
      cold_fraction = 0.0033; write_fraction = 0.05; compute_per_access = 70;
      accesses_per_unit = 2_000 };
    { k_name = "fluid"; suite = `Parsec; ws_pages = 28_000; hot_pages = 2_000;
      cold_fraction = 0.002; write_fraction = 0.20; compute_per_access = 50;
      accesses_per_unit = 2_000 };
    { k_name = "x264"; suite = `Parsec; ws_pages = 40_000; hot_pages = 1_600;
      cold_fraction = 0.001; write_fraction = 0.25; compute_per_access = 45;
      accesses_per_unit = 2_000 };
  ]

let find name = List.find (fun s -> s.k_name = name) suite

let page = Sgx.Types.page_bytes

let one_access spec ~vm ~rng ~base_page =
  let p =
    if Metrics.Rng.float rng < spec.cold_fraction then
      Metrics.Rng.int rng spec.ws_pages
    else Metrics.Rng.int rng spec.hot_pages
  in
  let addr = ((base_page + p) * page) + (64 * Metrics.Rng.int rng 64) in
  if Metrics.Rng.float rng < spec.write_fraction then vm.Vm.write addr
  else vm.Vm.read addr;
  vm.Vm.compute spec.compute_per_access

let run spec ~vm ~rng ?(base_page = 0) ~units () =
  if units <= 0 then invalid_arg "Kernels.run: units must be positive";
  for _ = 1 to units do
    for _ = 1 to spec.accesses_per_unit do
      one_access spec ~vm ~rng ~base_page
    done;
    vm.Vm.progress ()
  done

let touch_all spec ~vm ?(base_page = 0) () =
  for p = 0 to spec.ws_pages - 1 do
    vm.Vm.read ((base_page + p) * page)
  done
