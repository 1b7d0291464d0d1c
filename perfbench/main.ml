(* The request-level benchmark.

     main.exe --workload hot|cold|corpus --seed N --seconds S --trace 0|1
     main.exe --record perfbench/expected.json

   Run from the repository root: the recorded optima are read from
   [expected_path].

   One process, one outstanding request (a closed loop), no threads,
   a 1-slot serve pool. With --trace 0 a run times requests end to end
   through [Serve.Daemon.handle_line] (hot, cold) or [Core.Engine.run]
   (corpus) and reports the end-to-end metrics. With --trace 1 it
   alternates untraced passes with passes through [Pipeline], which
   times each layer's public functions from outside, and reports the
   per-layer metrics. Every response is checked by [Oracle]; the last
   stdout line is the JSON result, and the exit code is 1 when anything
   failed. *)

module D = Serve.Daemon
module E = Core.Engine
module J = Svutil.Json
module P = Pipeline

let now = P.now
let setups = 9
let expected_path = "perfbench/expected.json"

(* {1 Reporting} *)

type report = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** failed self-tests and checks *)
  mutable metrics : (string * float * string) list;  (** reverse order *)
}

let report = { attempted = 0; failed = 0; problems = []; metrics = [] }
let metric name unit v = report.metrics <- (name, v, unit) :: report.metrics

let problem fmt =
  Printf.ksprintf (fun s -> report.problems <- s :: report.problems) fmt

let self_test name ok = if not ok then problem "self-test failed: %s" name

let tally ok =
  report.attempted <- report.attempted + 1;
  if not ok then report.failed <- report.failed + 1

let print_result () =
  let metrics = List.rev report.metrics in
  List.iter
    (fun (n, v, u) -> Printf.printf "%-26s %14.6f %s\n" n v u)
    metrics;
  Printf.printf "%-26s %14.6f ratio (%d of %d requests)\n" "fail_frac"
    (float_of_int report.failed /. float_of_int (max 1 report.attempted))
    report.failed report.attempted;
  List.iter (fun p -> Printf.printf "problem: %s\n" p) (List.rev report.problems);
  let correct = report.failed = 0 && report.problems = [] && report.attempted > 0 in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct report.attempted report.failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} n v u)
          metrics));
  print_newline ();
  correct

(* {1 Measurement helpers} *)

let median l =
  let a = Array.of_list (List.sort compare l) in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Linear interpolation between closest ranks over a sorted array. *)
let quantile sorted q =
  let n = Array.length sorted in
  let x = q *. float_of_int (n - 1) in
  let i = int_of_float x in
  if i >= n - 1 then sorted.(n - 1)
  else sorted.(i) +. ((x -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Set up [setups] times; keep the last state and report the median.
   No [Gc.full_major] between set-ups: on OCaml 5.1 it raises
   [top_heap_words], and so heap_peak_mb, by up to 80%. *)
let timed_setup f =
  let rec go k acc =
    let t0 = now () in
    let state = f () in
    let acc = float_of_int (now () - t0) /. 1e9 :: acc in
    if k = 1 then (state, acc) else go (k - 1) acc
  in
  let state, times = go setups [] in
  metric "setup_s" "s" (median times);
  state

(* Latencies live outside the OCaml heap, so storing them does not
   move heap_peak_mb. *)
let lat_capacity = 1 lsl 22

let latencies =
  lazy Bigarray.(Array1.create int c_layout lat_capacity)

(* The timed window: chunks of requests sent back to back, one
   outstanding at a time, until [seconds] of request time have passed.
   The next chunk is generated, and the last one checked, off the
   clock. Reports the end-to-end metrics; returns the request count.

   heap_peak_mb is read once [heap_at] requests have been sent (or at
   the end, if fewer were): the heap's high-water mark climbs in steps
   as rarer, heavier requests arrive, so reading it at a fixed request
   count keeps it a property of the inputs, not of how fast the host
   ran. *)
let closed_loop ~seconds ~chunk ~heap_at ~gen ~send ~check =
  let lat = Lazy.force latencies in
  let timed = ref 0 and sent = ref 0 and heap = ref None in
  let budget = int_of_float (seconds *. 1e9) in
  while !timed < budget && !sent + chunk <= lat_capacity do
    let reqs = gen ~from:!sent ~n:chunk in
    let c0 = now () in
    let out =
      Array.mapi
        (fun i r ->
          let t0 = now () in
          let o = send r in
          lat.{!sent + i} <- now () - t0;
          o)
        reqs
    in
    timed := !timed + (now () - c0);
    sent := !sent + chunk;
    if !heap = None && !sent >= heap_at then heap := Some (heap_mb ());
    Array.iteri (fun i r -> tally (check r out.(i))) reqs
  done;
  (* read before the summary below allocates *)
  let heap = match !heap with Some h -> h | None -> heap_mb () in
  let sorted = Array.init !sent (fun i -> float_of_int lat.{i} /. 1e6) in
  Array.sort compare sorted;
  metric "req_p50_ms" "ms" (quantile sorted 0.5);
  metric "req_p90_ms" "ms" (quantile sorted 0.9);
  metric "throughput_rps" "1/s" (float_of_int !sent /. (float_of_int !timed /. 1e9));
  metric "heap_peak_mb" "MB" heap;
  Printf.printf "timed requests: %d over %.3f s\n" !sent (float_of_int !timed /. 1e9);
  !sent

(* {1 Serve workloads} *)

type serve_load = {
  universe : string;
  optima : string array;
  prime : Specgen.request array;  (** set-up requests, untimed *)
  stream : from:int -> n:int -> Specgen.request array;
  trace_lines : int;  (** requests per traced pass *)
  chunk : int;
  heap_at : int;
  hit_ratio : float;  (** what the timed requests must see *)
}

let hot_load ~seed (x : Oracle.expected) =
  let pool = Specgen.hot_pool ~seed in
  {
    universe = "hot";
    optima = x.Oracle.hot;
    prime = Array.map (fun s -> Specgen.request s) pool;
    stream = Specgen.hot_requests ~seed pool;
    trace_lines = 1000;
    chunk = 256;
    heap_at = 4096;
    hit_ratio = 1.0;
  }

let cold_load ~seed (x : Oracle.expected) =
  {
    universe = "cold";
    optima = x.Oracle.cold;
    prime = Specgen.cold_warmup ~seed ~n:16;
    stream = Specgen.cold_requests ~seed;
    trace_lines = 300;
    chunk = 16;
    heap_at = 1024;
    hit_ratio = 0.0;
  }

let check_serve l (r : Specgen.request) resp =
  Oracle.check_serve l.universe
    ~expected:l.optima.(r.Specgen.spec.Specgen.index)
    r resp

let handle d line =
  match fst (D.handle_line d line) with Some r -> r | None -> ""

let daemon_counts d =
  match J.of_string (D.stats_json d) with
  | Ok j ->
      let get k = Option.value ~default:0 (J.int_member k j) in
      (get "hits", get "misses")
  | Error _ -> (0, 0)

let prime_daemon l =
  let d = D.create (D.default_config ()) in
  let resps = Array.map (fun (r : Specgen.request) -> handle d r.Specgen.line) l.prime in
  (d, resps)

let serve_e2e ~seconds l =
  let d, resps = timed_setup (fun () -> prime_daemon l) in
  Array.iteri (fun i r -> tally (check_serve l r resps.(i))) l.prime;
  let h0, m0 = daemon_counts d in
  let sent =
    closed_loop ~seconds ~chunk:l.chunk ~heap_at:l.heap_at ~gen:l.stream
      ~send:(fun (r : Specgen.request) -> handle d r.Specgen.line)
      ~check:(check_serve l)
  in
  let h1, m1 = daemon_counts d in
  self_test "every timed request consulted the cache" (h1 - h0 + (m1 - m0) = sent);
  self_test
    (Printf.sprintf "timed cache hit ratio is %g" l.hit_ratio)
    (float_of_int (h1 - h0) = l.hit_ratio *. float_of_int sent)

(* {1 Traced runs} *)

let per_request t ns = float_of_int ns /. 1e3 /. float_of_int (max 1 t.P.requests)

let busy_us t layer = per_request t t.P.busy.(P.index layer)

let hit_ratio t =
  if t.P.lookups = 0 then 0. else float_of_int t.P.hits /. float_of_int t.P.lookups

let layer_metrics ~total:t ~first ~untraced_ns ~untraced_n =
  metric "request.decode_us" "us" (busy_us t P.Decode);
  metric "parse.busy_us" "us" (busy_us t P.Parse);
  metric "lint.busy_us" "us" (busy_us t P.Lint);
  metric "derive.busy_us" "us" (busy_us t P.Derive);
  metric "derive.calls" "count" (float_of_int first.P.derived_modules);
  metric "cache.find_us" "us" (busy_us t P.Find);
  metric "cache.store_us" "us" (busy_us t P.Store);
  metric "cache.hits" "count" (float_of_int first.P.hits);
  metric "cache.hit_ratio" "ratio" (hit_ratio first);
  metric "cache.evictions" "count" (float_of_int first.P.evictions);
  metric "cache.fallbacks" "count" (float_of_int first.P.fallbacks);
  metric "canon.busy_us" "us" (busy_us t P.Canon);
  metric "engine.busy_us" "us" (busy_us t P.Engine);
  metric "engine.calls" "count" (float_of_int first.P.engine_calls);
  metric "engine.flow_us" "us" (per_request t (int_of_float (t.P.flow_ms *. 1e6)));
  metric "engine.search_us" "us" (per_request t (int_of_float (t.P.search_ms *. 1e6)));
  metric "engine.nodes" "count" (float_of_int first.P.nodes);
  metric "engine.float_pivots" "count" (float_of_int first.P.float_pivots);
  metric "engine.certify_fallbacks" "count" (float_of_int first.P.certify_fallbacks);
  metric "engine.not_proven" "count" (float_of_int first.P.not_proven);
  metric "render.busy_us" "us" (busy_us t P.Render);
  let spans =
    List.fold_left
      (fun acc l -> if l = P.Canon then acc else acc + t.P.busy.(P.index l))
      0 P.layers
  in
  metric "trace.coverage" "ratio" (float_of_int spans /. float_of_int t.P.wall);
  let traced = float_of_int t.P.wall /. float_of_int t.P.requests in
  let untraced = float_of_int untraced_ns /. float_of_int untraced_n in
  metric "trace.overhead" "ratio" ((traced /. untraced) -. 1.)

(* Alternate untraced and traced passes over the same requests until
   [seconds] have passed (at least one pair), then report. [untraced ()]
   returns its responses and request time, [traced t] its responses;
   both start from a fresh state. The responses must agree byte for
   byte, and the work counts must repeat exactly on every traced
   pass. Returns the first traced pass. *)
let alternate ~seconds ~untraced ~traced =
  let total = P.trace () and first = ref None in
  let u_ns = ref 0 and u_n = ref 0 in
  let start = now () in
  let budget = int_of_float (seconds *. 1e9) in
  while !first = None || now () - start < budget do
    let u_resps, ns = untraced () in
    u_ns := !u_ns + ns;
    u_n := !u_n + Array.length u_resps;
    let t = P.trace () in
    let t_resps = traced t in
    Array.iteri
      (fun i r ->
        if not (String.equal r u_resps.(i)) then
          problem "traced response %d differs from handle_line's" i)
      t_resps;
    (match !first with
    | None -> first := Some t
    | Some t0 ->
        if P.counts t <> P.counts t0 then
          problem "work counts differ between identical passes");
    P.add_into total t
  done;
  let first = Option.get !first in
  layer_metrics ~total ~first ~untraced_ns:!u_ns ~untraced_n:!u_n;
  first

let serve_traced ~seconds l =
  let lines = l.stream ~from:0 ~n:l.trace_lines in
  let untraced () =
    let d, resps = prime_daemon l in
    Array.iteri (fun i r -> tally (check_serve l r resps.(i))) l.prime;
    let t0 = now () in
    let out = Array.map (fun (r : Specgen.request) -> handle d r.Specgen.line) lines in
    let ns = now () - t0 in
    Array.iteri (fun i r -> tally (check_serve l r out.(i))) lines;
    (out, ns)
  in
  let traced t =
    let st = P.server () in
    let scratch = P.trace () in
    Array.iter
      (fun (r : Specgen.request) -> ignore (P.request st scratch r.Specgen.line))
      l.prime;
    Array.map (fun (r : Specgen.request) -> P.request st t r.Specgen.line) lines
  in
  let first = alternate ~seconds ~untraced ~traced in
  self_test
    (Printf.sprintf "traced cache hit ratio is %g" l.hit_ratio)
    (hit_ratio first = l.hit_ratio)

(* {1 Corpus} *)

let corpus_order ~seed (x : Oracle.expected) =
  let recs = Svbench.Corpus.generate ~seed:x.Oracle.corpus_seed () in
  let rng = Svutil.Rng.create (Specgen.hash31 (Printf.sprintf "corpus-order|%d" seed)) in
  (recs, Array.of_list (Svutil.Rng.shuffle rng recs))

let check_corpus (x : Oracle.expected) (ir : Svbench.Corpus.inst_rec) r =
  match Hashtbl.find_opt x.Oracle.corpus ir.Svbench.Corpus.id with
  | Some expected -> Oracle.check_corpus ~expected ir r
  | None -> false

let solve (ir : Svbench.Corpus.inst_rec) = E.run (E.default_request ir.Svbench.Corpus.inst)

let corpus_e2e ~seconds x order =
  let n = Array.length order in
  let results = timed_setup (fun () -> Array.map solve order) in
  Array.iteri (fun i ir -> tally (check_corpus x ir results.(i))) order;
  ignore
    (closed_loop ~seconds ~chunk:n ~heap_at:(20 * n)
       ~gen:(fun ~from:_ ~n:_ -> order)
       ~send:solve ~check:(check_corpus x))

let corpus_traced ~seconds x order =
  let render r = Serve.Response.engine_result ~timings:false r in
  let untraced () =
    let t0 = now () in
    let out = Array.map (fun ir -> let r = solve ir in (r, render r)) order in
    let ns = now () - t0 in
    Array.iteri (fun i ir -> tally (check_corpus x ir (fst out.(i)))) order;
    (Array.map snd out, ns)
  in
  let traced t =
    Array.map (fun ir -> P.corpus_solve t ir.Svbench.Corpus.inst) order
  in
  ignore (alternate ~seconds ~untraced ~traced)

(* {1 Recording the optima} *)

let brute_cap = 14

(* Solve with the default engine, cross-checked by the exact search
   without static fixing and, at most [brute_cap] attributes, by
   exhaustive enumeration. *)
let recorded_optimum what inst =
  let run meth fix =
    let r = E.run { (E.default_request inst) with E.meth; static_fixing = fix } in
    match r.E.solution with
    | Some s when r.E.proven_optimal -> s
    | _ -> failwith (what ^ ": no proven optimum")
  in
  let s = run E.Auto true in
  let same (s' : Core.Solution.t) =
    if not (Rat.equal s.Core.Solution.cost s'.Core.Solution.cost) then
      failwith (what ^ ": methods disagree on the optimum")
  in
  same (run E.Exact false);
  let brute = List.length (Core.Instance.attrs inst) <= brute_cap in
  if brute then same (run E.Brute true);
  (s, brute)

let record path =
  let bruted = ref 0 in
  let universe (u : Specgen.universe) =
    List.init u.Specgen.u_size (fun i ->
        let spec = Specgen.member u i in
        let what = Printf.sprintf "%s member %d" u.Specgen.u_name i in
        let inst =
          match Serve.Request.spec_of_string ~preflight:true (Specgen.text spec) with
          | Ok p -> Serve.Request.instance_of p
          | Error e -> failwith (what ^ ": " ^ Serve.Request.message e)
        in
        let s, b = recorded_optimum what inst in
        if b then incr bruted;
        let cost = Rat.to_string s.Core.Solution.cost in
        let view =
          {
            Oracle.cost;
            hidden = List.sort compare s.Core.Solution.hidden;
            privatized = List.sort compare s.Core.Solution.privatized;
          }
        in
        if not (Oracle.spec_view_ok spec ~expected:cost view) then
          failwith (what ^ ": optimum fails the oracle");
        if i mod 1024 = 1023 then Printf.eprintf "%s: %d\n%!" u.Specgen.u_name (i + 1);
        cost)
  in
  let corpus_seed = 42 in
  let recs = Svbench.Corpus.generate ~seed:corpus_seed () in
  let corpus =
    List.map
      (fun (ir : Svbench.Corpus.inst_rec) ->
        let s, b = recorded_optimum ir.Svbench.Corpus.id ir.Svbench.Corpus.inst in
        if b then incr bruted;
        let cost = Rat.to_string s.Core.Solution.cost in
        if not (Oracle.corpus_ok ir.Svbench.Corpus.inst ~expected:cost s) then
          failwith (ir.Svbench.Corpus.id ^ ": optimum fails the oracle");
        (ir.Svbench.Corpus.id, J.Str cost))
      recs
  in
  let strs l = J.Arr (List.map (fun c -> J.Str c) l) in
  let hot = universe Specgen.hot_universe in
  let cold = universe Specgen.cold_universe in
  let j =
    J.Obj
      [
        ("corpus_seed", J.Num (float_of_int corpus_seed));
        ( "inputs",
          J.Obj (List.map (fun (k, d) -> (k, J.Str d)) (Oracle.input_digests ~corpus:recs)) );
        ("brute_checked", J.Num (float_of_int !bruted));
        ("hot", strs hot);
        ("cold", strs cold);
        ("corpus", J.Obj corpus);
      ]
  in
  let oc = open_out_bin path in
  output_string oc (J.to_string j);
  output_char oc '\n';
  close_out oc;
  Printf.printf "recorded %d hot, %d cold, %d corpus optima (%d cross-checked by brute)\n"
    (List.length hot) (List.length cold) (List.length corpus) !bruted

(* {1 Self-tests on the generated inputs} *)

let input_self_tests ~seed =
  let pool = Specgen.hot_pool ~seed in
  let a = Specgen.hot_requests ~seed pool ~from:0 ~n:64 in
  let b = Specgen.hot_requests ~seed (Specgen.hot_pool ~seed) ~from:0 ~n:64 in
  let lines x = Array.map (fun (r : Specgen.request) -> r.Specgen.line) x in
  self_test "the generator is byte-deterministic" (lines a = lines b);
  let other = Specgen.hot_requests ~seed:(seed + 1) (Specgen.hot_pool ~seed:(seed + 1)) ~from:0 ~n:64 in
  self_test "another seed changes the hot request lines" (lines a <> lines other);
  self_test "another seed changes the cold request lines"
    (lines (Specgen.cold_requests ~seed ~from:0 ~n:4)
    <> lines (Specgen.cold_requests ~seed:(seed + 1) ~from:0 ~n:4));
  Array.iter
    (fun (r : Specgen.request) ->
      if r.Specgen.prefix <> "" then begin
        let text =
          match J.of_string r.Specgen.line with
          | Ok j -> Option.value ~default:"" (J.str_member "workflow" j)
          | Error _ -> ""
        in
        let tokens = String.split_on_char ' ' (String.map (function '\n' -> ' ' | c -> c) text) in
        let base = Specgen.names r.Specgen.spec in
        self_test "renamed lines share no names with their base spec"
          (text <> "" && not (List.exists (fun tok -> List.mem tok base) tokens))
      end)
    a

(* {1 Command line} *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and traced = ref 0 in
  let record_to = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "hot|cold|corpus");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed window");
      ("--trace", Arg.Set_int traced, "0|1 end-to-end or per-layer run");
      ("--record", Arg.Set_string record_to, "FILE record the optima and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload hot|cold|corpus --seed N --seconds S --trace 0|1";
  if !record_to <> "" then record !record_to
  else begin
    let x = Oracle.load expected_path in
    let seed = !seed and seconds = !seconds and traced = !traced = 1 in
    let corpus_recs, order = corpus_order ~seed x in
    Oracle.check_inputs x ~corpus:corpus_recs;
    input_self_tests ~seed;
    (match (!workload, traced) with
    | "hot", false -> serve_e2e ~seconds (hot_load ~seed x)
    | "cold", false -> serve_e2e ~seconds (cold_load ~seed x)
    | "corpus", false -> corpus_e2e ~seconds x order
    | "hot", true -> serve_traced ~seconds (hot_load ~seed x)
    | "cold", true -> serve_traced ~seconds (cold_load ~seed x)
    | "corpus", true -> corpus_traced ~seconds x order
    | w, _ ->
        prerr_endline ("unknown workload " ^ w);
        exit 2);
    if not (print_result ()) then exit 1
  end
