(* lint-fleet: [Protocols.Registry.lint ~max_faults:1] over the whole
   registry through the persistent analysis cache. The only workload that
   runs the analysis fixpoint, [Structhash] and cache I/O.

   A pass lints cold, into a fresh cache directory (cache writes), then
   warm, with fresh cache handles on the directory the cold lint just
   filled (cache reads). The fresh directory counts as pass time, because
   a user linting a new tree pays for it on every run. Set-up: ordering
   the fleet.

   Every lint's output is checked byte-for-byte against an uncached lint
   of the same fleet. The seed shuffles the fleet order. *)

open Common
module Cache = Analysis.Cache

let fleet seed =
  let rng = Random.State.make [| seed; 0x117 |] in
  shuffle rng Protocols.Registry.all

let root = Filename.concat work_dir "lint"
let fresh_dirs = ref 0

let fresh_dir () =
  incr fresh_dirs;
  let d = Filename.concat root (Printf.sprintf "cache-%d" !fresh_dirs) in
  rm_rf d;
  d

let lint_all ?cache fleet =
  List.map
    (fun e ->
      Span.span "analysis.lint" (fun () ->
          (Protocols.Registry.lint ?cache ~max_faults:1 e params).Protocols.Registry.human))
    fleet

(* One pass through a cache handle on [dir]; checks the output against the
   uncached reference and returns the handle's stats. *)
let pass ~reference fleet dir =
  let cache = Cache.open_ ~dir in
  let out = lint_all ~cache fleet in
  List.iter2
    (fun (e : Protocols.Registry.entry) (got, want) ->
      check ("lint: " ^ e.Protocols.Registry.name ^ " output matches the uncached lint")
        (String.equal got want))
    fleet (List.combine out reference);
  cache.Cache.stats

let cold ~reference fleet () =
  let dir = fresh_dir () in
  let stats = pass ~reference fleet dir in
  dir, stats

let warm ~reference fleet dir () =
  let stats = pass ~reference fleet dir in
  check "lint: warm pass hits on every protocol"
    (stats.Cache.misses = 0 && stats.Cache.hits = List.length fleet);
  stats

(* One pass: a cold lint, then a warm one on the directory it filled, each
   timed as a part of the pass. *)
let cold_then_warm ~reference fleet () =
  let dir, _ = timed_part "cold" (cold ~reference fleet) in
  ignore (timed_part "warm" (warm ~reference fleet dir))

let untraced ~seed ~seconds =
  mkdir_p root;
  let reference = lint_all (fleet seed) in
  let setup_s, t =
    measure ~seconds (fun () -> fleet seed) (fun fleet -> cold_then_warm ~reference fleet ())
  in
  metric "setup_s" "s" setup_s;
  metric "pass_s" "s" (Stats.median t);
  let part name = Stats.median (Array.of_list (Hashtbl.find part_times name)) in
  metric "lint_cold_s" "s" (part "cold");
  metric "lint_warm_s" "s" (part "warm");
  rm_rf root

let traced ~seed =
  mkdir_p root;
  let fleet = fleet seed in
  let reference = lint_all fleet in
  let cold_dir, _ = cold ~reference fleet () in
  let own_pass = cold_then_warm ~reference fleet in
  let plain () =
    let dt, ((words, majors), ()) = time (fun () -> gc_delta own_pass) in
    dt, words, majors
  in
  let _, words, majors = plain () in
  let untraced_pass, _, _ = plain () in
  (* No exact-repeat check on allocation here: the cache names its
     write-side temp files at random, so allocation moves by a few words
     from run to run. *)
  metric "gc.minor_mwords" "Mwords" (words /. 1e6);
  count "gc.major_collections" majors;
  (* Cache counts: a cold pass misses everywhere, a warm one hits everywhere. *)
  let counts () =
    let _, cold_stats = cold ~reference fleet () in
    let warm_stats = warm ~reference fleet cold_dir () in
    exact_count "analysis.cache_misses" (float_of_int cold_stats.Cache.misses);
    exact_count "analysis.cache_hits" (float_of_int warm_stats.Cache.hits);
    cold_stats, warm_stats
  in
  ignore (counts ());
  let cold_stats, warm_stats = counts () in
  count "analysis.cache_misses" cold_stats.Cache.misses;
  count "analysis.cache_hits" warm_stats.Cache.hits;
  let hit_ratio =
    float_of_int warm_stats.Cache.hits
    /. float_of_int (max 1 (warm_stats.Cache.hits + warm_stats.Cache.misses))
  in
  check "lint: warm hit ratio is 1.0" (hit_ratio = 1.0);
  metric "analysis.cache_hit_ratio" "ratio" hit_ratio;
  Span.enabled := true;
  let traced_pass, () = time own_pass in
  metric "trace.overhead_s" "s" (traced_pass -. untraced_pass);
  (* The analysis layer's public entry points, one protocol at a time. *)
  let warm_cache = Cache.open_ ~dir:cold_dir in
  let scratch = Cache.open_ ~dir:(fresh_dir ()) in
  List.iter
    (fun (e : Protocols.Registry.entry) ->
      let sys = e.Protocols.Registry.build params in
      let h = Span.span "analysis.structhash" (fun () -> Analysis.Structhash.system sys) in
      ignore (Span.span "analysis.fixpoint" (fun () -> Analysis.Reach.analyze ~max_faults:1 sys));
      let key =
        Protocols.Registry.lint_key h ~max_faults:1 (Protocols.Registry.claim_digest e params)
      in
      match Span.span "analysis.cache_find" (fun () -> Cache.lint_find warm_cache ~key) with
      | Some entry ->
        Span.span "analysis.cache_store" (fun () -> Cache.lint_store scratch ~key entry)
      | None -> check ("lint: " ^ e.Protocols.Registry.name ^ " entry found warm") false)
    fleet;
  let median name = Stats.median (Span.durations name) in
  metric "analysis.fixpoint_ms" "ms" (Span.total "analysis.fixpoint" *. 1e3);
  metric "analysis.structhash_ms" "ms" (Span.total "analysis.structhash" *. 1e3);
  metric "analysis.cache_find_us" "us" (median "analysis.cache_find" *. 1e6);
  metric "analysis.cache_store_us" "us" (median "analysis.cache_store" *. 1e6);
  rm_rf root
