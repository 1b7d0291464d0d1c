(* The canonical-form solution cache. Soundness is structural: the LRU
   key is the canonical form itself, so a key match proves isomorphism;
   a hit is then served only after (1) explicit solution transport
   through the canonical relabelings and (2) a re-closure check of the
   transported solution on the request's own instance. *)

module Metrics = Svutil.Metrics
module Lru = Svutil.Lru

type entry = {
  e_labeling : Core.Canon.labeling;
  e_solution : Core.Solution.t option;  (* None = proven infeasible *)
  e_lower_bound : Rat.t option;
  e_method : Core.Engine.meth;
}

type t = {
  lru : entry Lru.t;
  metrics : Metrics.t;
  (* One refinement pass per request: [find] computes the labeling, and
     the [store] that follows a miss reuses it (matched by physical
     identity of the instance). *)
  mutable last : (Core.Instance.t * Core.Canon.labeling) option;
  mutable hits : int;
  mutable misses : int;
}

let create ?(metrics = Metrics.nop) ~capacity () =
  { lru = Lru.create capacity; metrics; last = None; hits = 0; misses = 0 }

let capacity t = Lru.capacity t.lru
let length t = Lru.length t.lru
let hits t = t.hits
let misses t = t.misses
let evictions t = Lru.evictions t.lru

let cacheable (req : Core.Engine.request) =
  match req.Core.Engine.meth with
  | Core.Engine.Auto | Core.Engine.Exact | Core.Engine.Brute -> true
  | Core.Engine.Greedy | Core.Engine.Round_card | Core.Engine.Round_set ->
      false

let labeled t inst =
  match t.last with
  | Some (i, l) when i == inst -> l
  | _ ->
      let l = Core.Canon.labeling inst in
      t.last <- Some (inst, l);
      l

let miss t =
  t.misses <- t.misses + 1;
  Metrics.tick t.metrics "serve.misses";
  None

let hit t r =
  t.hits <- t.hits + 1;
  Metrics.tick t.metrics "serve.hits";
  Some r

let result_of (req : Core.Engine.request) lab e solution stats =
  {
    Core.Engine.solution;
    lower_bound = e.e_lower_bound;
    proven_optimal = Option.is_some solution;
    timings = [];
    stats;
    method_used = e.e_method;
    metrics = req.Core.Engine.metrics;
    state =
      Some
        {
          Core.Engine.solved_inst = req.Core.Engine.inst;
          canon = lazy (Core.Canon.form_of_labeling lab);
        };
  }

let find t (req : Core.Engine.request) =
  let inst = req.Core.Engine.inst in
  let lab = labeled t inst in
  match Lru.find t.lru (Core.Canon.form_of_labeling lab) with
  | None -> miss t
  | Some e -> (
      match e.e_solution with
      | None ->
          (* Isomorphic to a proven-infeasible instance: infeasibility
             transports with no solution to verify. *)
          hit t (result_of req lab e None [ ("infeasible", "true") ])
      | Some s -> (
          match Core.Canon.transport ~src:e.e_labeling ~dst:lab s with
          | None -> miss t
          | Some s' ->
              let closed = Core.Solution.of_hidden inst s'.Core.Solution.hidden in
              if
                Core.Solution.is_feasible inst closed
                && Rat.equal closed.Core.Solution.cost s'.Core.Solution.cost
              then hit t (result_of req lab e (Some closed) [])
              else begin
                Metrics.tick t.metrics "serve.verify_failures";
                miss t
              end))

let stat_true (r : Core.Engine.result) k =
  List.assoc_opt k r.Core.Engine.stats = Some "true"

(* Proven results only. A solution must be proven optimal; an absent
   solution must be proven infeasibility — flagged as such by a proving
   method, with no budget hit and no refusal. *)
let storable (r : Core.Engine.result) =
  match r.Core.Engine.solution with
  | Some _ -> r.Core.Engine.proven_optimal
  | None ->
      stat_true r "infeasible"
      && (match r.Core.Engine.method_used with
         | Core.Engine.Exact | Core.Engine.Brute -> true
         | _ -> false)
      && (not (stat_true r "limit_hit"))
      && (not (stat_true r "deadline_hit"))
      && List.assoc_opt "refused" r.Core.Engine.stats = None

let store t (req : Core.Engine.request) (r : Core.Engine.result) =
  if storable r then begin
    let lab = labeled t req.Core.Engine.inst in
    let before = Lru.evictions t.lru in
    Lru.add t.lru (Core.Canon.form_of_labeling lab)
      {
        e_labeling = lab;
        e_solution = r.Core.Engine.solution;
        e_lower_bound = r.Core.Engine.lower_bound;
        e_method = r.Core.Engine.method_used;
      };
    let evicted = Lru.evictions t.lru - before in
    if evicted > 0 then Metrics.count t.metrics "serve.evictions" evicted
  end
