(* The traced request path: the steps [Serve.Daemon.solve] takes for a
   solve request, replayed through each layer's public function in the
   same order and with the same server-side spans and slot pool, each
   call wrapped in a span of the benchmark's own. The response it
   renders must be byte-identical to [Serve.Daemon.handle_line]'s on
   the same line; [Main] checks that on every pass. *)

module M = Svutil.Metrics
module Req = Serve.Request
module E = Core.Engine

let now () = Int64.to_int (Monotonic_clock.now ())

type layer =
  | Decode
  | Parse
  | Lint
  | Derive
  | Find
  | Engine
  | Store
  | Render
  | Canon

let layers = [ Decode; Parse; Lint; Derive; Find; Engine; Store; Render; Canon ]

let index = function
  | Decode -> 0
  | Parse -> 1
  | Lint -> 2
  | Derive -> 3
  | Find -> 4
  | Engine -> 5
  | Store -> 6
  | Render -> 7
  | Canon -> 8

(* Busy nanoseconds per layer, request wall time, and the layers' work
   counts over a run of requests. *)
type trace = {
  busy : int array;
  mutable wall : int;
  mutable requests : int;
  mutable derived_modules : int;
  mutable engine_calls : int;
  mutable flow_ms : float;
  mutable search_ms : float;
  mutable nodes : int;
  mutable float_pivots : int;
  mutable certify_fallbacks : int;
  mutable not_proven : int;
  mutable lookups : int;
  mutable hits : int;
  mutable evictions : int;
  mutable fallbacks : int;  (** digest collisions plus failed hit checks *)
}

let trace () =
  {
    busy = Array.make (List.length layers) 0;
    wall = 0;
    requests = 0;
    derived_modules = 0;
    engine_calls = 0;
    flow_ms = 0.;
    search_ms = 0.;
    nodes = 0;
    float_pivots = 0;
    certify_fallbacks = 0;
    not_proven = 0;
    lookups = 0;
    hits = 0;
    evictions = 0;
    fallbacks = 0;
  }

let add_into dst src =
  Array.iteri (fun i v -> dst.busy.(i) <- dst.busy.(i) + v) src.busy;
  dst.wall <- dst.wall + src.wall;
  dst.requests <- dst.requests + src.requests;
  dst.derived_modules <- dst.derived_modules + src.derived_modules;
  dst.engine_calls <- dst.engine_calls + src.engine_calls;
  dst.flow_ms <- dst.flow_ms +. src.flow_ms;
  dst.search_ms <- dst.search_ms +. src.search_ms;
  dst.nodes <- dst.nodes + src.nodes;
  dst.float_pivots <- dst.float_pivots + src.float_pivots;
  dst.certify_fallbacks <- dst.certify_fallbacks + src.certify_fallbacks;
  dst.not_proven <- dst.not_proven + src.not_proven;
  dst.lookups <- dst.lookups + src.lookups;
  dst.hits <- dst.hits + src.hits;
  dst.evictions <- dst.evictions + src.evictions;
  dst.fallbacks <- dst.fallbacks + src.fallbacks

(* The counts that must repeat exactly on the same requests. *)
let counts t =
  [
    ("derive.calls", t.derived_modules);
    ("engine.calls", t.engine_calls);
    ("engine.nodes", t.nodes);
    ("engine.float_pivots", t.float_pivots);
    ("engine.certify_fallbacks", t.certify_fallbacks);
    ("engine.not_proven", t.not_proven);
    ("cache.lookups", t.lookups);
    ("cache.hits", t.hits);
    ("cache.evictions", t.evictions);
    ("cache.fallbacks", t.fallbacks);
  ]

let span t layer f =
  let t0 = now () in
  let r = f () in
  let i = index layer in
  t.busy.(i) <- t.busy.(i) + (now () - t0);
  r

(* An engine solve under a live per-request registry, its work counts
   folded into the trace. *)
let engine t (req : E.request) =
  let r = span t Engine (fun () -> E.run req) in
  let m = req.E.metrics in
  let span_ms path =
    match M.span_stats m path with Some (_, ms) -> ms | None -> 0.
  in
  t.engine_calls <- t.engine_calls + 1;
  t.flow_ms <- t.flow_ms +. span_ms "solve/flow";
  t.search_ms <- t.search_ms +. span_ms "solve/search";
  t.nodes <- t.nodes + M.counter_value m "ilp.nodes";
  t.float_pivots <- t.float_pivots + M.counter_value m "simplex.hybrid.float_pivots";
  t.certify_fallbacks <- t.certify_fallbacks + M.counter_value m "certify.fallbacks";
  if not r.E.proven_optimal then t.not_proven <- t.not_proven + 1;
  r

(* The render step, with the request registry detached so the bytes
   match an untraced response. *)
let render t f = span t Render f
let detached (r : E.result) = { r with E.metrics = M.nop }

(* {1 Serve requests} *)

(* What [Serve.Daemon.create] builds from [default_config]. *)
type server = { cache : Serve.Cache.t; sem : Svutil.Sem.t; reg : M.t }

let server () =
  let reg = M.create () in
  { cache = Serve.Cache.create ~metrics:reg ~capacity:128 (); sem = Svutil.Sem.create 1; reg }

let fallbacks st =
  M.counter_value st.reg "serve.collisions"
  + M.counter_value st.reg "serve.verify_failures"

let load st t src =
  M.span st.reg "serve/parse" (fun () ->
      match span t Parse (fun () -> Wf.Parse.parse_string src) with
      | Error e -> Error (Req.Parse_error e)
      | Ok spec -> (
          match
            span t Lint (fun () ->
                Analysis.Wfcheck.errors (Analysis.Wfcheck.check_spec spec))
          with
          | [] -> Ok spec
          | diagnostics -> Error (Req.Static_errors { file = "<request>"; diagnostics })))

let solve st t id (s : Req.solve) =
  let src =
    match s.Req.source with
    | Req.Inline src -> src
    | Req.File _ -> invalid_arg "Pipeline.solve: inline workflows only"
  in
  match load st t src with
  | Error e -> (Serve.Response.error ?id e, None)
  | Ok spec ->
      let inst = span t Derive (fun () -> Req.instance_of spec) in
      t.derived_modules <-
        t.derived_modules
        + List.length (Wf.Workflow.modules spec.Wf.Parse.workflow)
        - List.length spec.Wf.Parse.publics;
      Svutil.Sem.with_slots st.sem s.Req.options.Req.jobs (fun granted ->
          M.observe_in st.reg "serve.granted_jobs" (float_of_int granted);
          let ereq =
            Req.engine_request ~metrics:(M.create ()) inst
              { s.Req.options with Req.jobs = granted }
          in
          let use_cache = s.Req.use_cache && Serve.Cache.cacheable ereq in
          let cached =
            if use_cache then begin
              let f0 = fallbacks st in
              let r =
                M.span st.reg "serve/lookup" (fun () ->
                    span t Find (fun () -> Serve.Cache.find st.cache ereq))
              in
              t.lookups <- t.lookups + 1;
              if Option.is_some r then t.hits <- t.hits + 1;
              t.fallbacks <- t.fallbacks + (fallbacks st - f0);
              r
            end
            else None
          in
          let tag status (r : E.result) =
            { r with E.stats = ("cache", status) :: r.E.stats }
          in
          let r, status =
            match cached with
            | Some r -> (tag "hit" r, "hit")
            | None ->
                let r = M.span st.reg "serve/solve" (fun () -> engine t ereq) in
                if use_cache then begin
                  let e0 = Serve.Cache.evictions st.cache in
                  M.span st.reg "serve/store" (fun () ->
                      span t Store (fun () -> Serve.Cache.store st.cache ereq r));
                  t.evictions <- t.evictions + (Serve.Cache.evictions st.cache - e0);
                  (tag "miss" r, "miss")
                end
                else (r, "bypass")
          in
          let resp =
            render t (fun () ->
                Serve.Response.ok_fields ?id
                  [
                    ("cache", Serve.Response.str status);
                    ( "result",
                      Serve.Response.engine_result ~timings:s.Req.want_timings
                        (detached r) );
                  ])
          in
          (resp, if use_cache then Some inst else None))

(* One request line, timed from decode to rendered response. Then, off
   the request's clock, the canonical labeling that [Serve.Cache.find]
   computes internally is timed again on the same instance. *)
let request st t line =
  let t0 = now () in
  let resp, looked_up =
    match
      span t Decode (fun () ->
          Req.of_json_line ~defaults:Req.default_options line)
    with
    | Error (id, e) -> (Serve.Response.error ?id e, None)
    | Ok { Req.id; op = Req.Solve s } -> solve st t id s
    | Ok _ -> invalid_arg "Pipeline.request: solve requests only"
  in
  t.wall <- t.wall + (now () - t0);
  t.requests <- t.requests + 1;
  Option.iter
    (fun inst -> span t Canon (fun () -> ignore (Core.Canon.labeling inst)))
    looked_up;
  resp

(* {1 Corpus solves} *)

let corpus_solve t inst =
  let t0 = now () in
  let r =
    engine t { (E.default_request inst) with E.metrics = M.create () }
  in
  let resp = render t (fun () -> Serve.Response.engine_result ~timings:false (detached r)) in
  t.wall <- t.wall + (now () - t0);
  t.requests <- t.requests + 1;
  resp
