module D = Svutil.Deadline

type meth = Auto | Greedy | Round_card | Round_set | Exact | Brute

let meth_to_string = function
  | Auto -> "auto"
  | Greedy -> "greedy"
  | Round_card -> "round-card"
  | Round_set -> "round-set"
  | Exact -> "exact"
  | Brute -> "brute"

type request = {
  inst : Instance.t;
  meth : meth;
  deadline_ms : float option;
  node_limit : int;
  lp_mode : Lp.Simplex.mode;
  jobs : int;
  seed : int;
  trials : int;
  static_fixing : bool;
  warm_seed : Solution.t option;
  metrics : Svutil.Metrics.t;
}

let default_request inst =
  {
    inst;
    meth = Auto;
    deadline_ms = None;
    node_limit = Lp.Ilp.default_node_limit;
    lp_mode = Lp.Simplex.Hybrid_mode;
    jobs = 1;
    seed = 0;
    trials = 4;
    static_fixing = true;
    warm_seed = None;
    metrics = Svutil.Metrics.nop;
  }

type solved_state = { solved_inst : Instance.t; canon : string Lazy.t }

type result = {
  solution : Solution.t option;
  lower_bound : Rat.t option;
  proven_optimal : bool;
  timings : (string * float) list;
  stats : (string * string) list;
  method_used : meth;
  metrics : Svutil.Metrics.t;
  state : solved_state option;
}

let ratio r =
  match (r.solution, r.lower_bound) with
  | Some _, _ when r.proven_optimal -> Some 1.0
  | Some s, Some lb when Rat.gt lb Rat.zero ->
      Some (Rat.to_float (Rat.div s.Solution.cost lb))
  | Some s, Some _ when Rat.is_zero s.Solution.cost -> Some 1.0
  | _ -> None

(* Phase timing: one clock-read pair per phase feeds both the registry
   (as a span nested under [run]'s "solve" span) and the [(label, ms)]
   pairs that [timings] reports, so the two can never disagree. Solvers
   accumulate phases in reverse; [run] appends the total. *)
let phase metrics phases label f =
  let r, ms = Svutil.Metrics.timed metrics label f in
  phases := (label, ms) :: !phases;
  r

let make_result ~metrics ~phases ~method_used ?(stats = []) ?solution
    ?lower_bound ?(proven_optimal = false) () =
  {
    solution;
    lower_bound;
    proven_optimal;
    timings = List.rev !phases;
    stats;
    method_used;
    metrics;
    state = None;
  }

let greedy_solution inst =
  match Greedy.solve inst with
  | s when Solution.is_feasible inst s -> Some s
  | _ | (exception Invalid_argument _) -> None

(* When an LP-rounding method's relaxation blows its budget, fall back
   to the greedy solution rather than returning nothing: the engine
   contract is that a deadline hit degrades quality, not availability. *)
let greedy_fallback ~phases ~method_used ~stats (req : request) =
  let solution =
    phase req.metrics phases "greedy-fallback" (fun () ->
        greedy_solution req.inst)
  in
  make_result ~metrics:req.metrics ~phases ~method_used
    ~stats:(("deadline_hit", "true") :: stats)
    ?solution ()

let greedy (req : request) =
  let phases = ref [] in
  let solution =
    phase req.metrics phases "greedy" (fun () -> greedy_solution req.inst)
  in
  let stats =
    match solution with None -> [ ("infeasible", "true") ] | Some _ -> []
  in
  make_result ~metrics:req.metrics ~phases ~method_used:Greedy ~stats
    ?solution ()

(* Algorithm 1 (Theorem 5). *)
let round_card (req : request) =
  let phases = ref [] in
  if not (Exact.all_cardinality req.inst) then
    make_result ~metrics:req.metrics ~phases ~method_used:Round_card
      ~stats:
        [ ("refused", "instance has explicit set constraints; use round-set") ]
      ()
  else
    let deadline = D.of_ms_opt req.deadline_ms in
    match
      phase req.metrics phases "lp" (fun () ->
          Card_lp.lp_relaxation ~mode:req.lp_mode ~deadline
            ~metrics:req.metrics req.inst)
    with
    | exception D.Expired ->
        greedy_fallback ~phases ~method_used:Round_card ~stats:[] req
    | `Infeasible ->
        make_result ~metrics:req.metrics ~phases ~method_used:Round_card
          ~stats:[ ("infeasible", "true") ]
          ()
    | `Optimal (x, bound) ->
        let trials = max 1 req.trials in
        let solution =
          phase req.metrics phases "round" (fun () ->
              let base = Svutil.Rng.create req.seed in
              let rngs =
                Array.init trials (fun _ -> Svutil.Rng.split base)
              in
              Rounding.best_of trials (fun i ->
                  Rounding.algorithm1 ~metrics:req.metrics rngs.(i) req.inst
                    ~x))
        in
        make_result ~metrics:req.metrics ~phases ~method_used:Round_card
          ~stats:[ ("trials", string_of_int trials) ]
          ~solution ~lower_bound:bound ()

let round_set (req : request) =
  let phases = ref [] in
  let deadline = D.of_ms_opt req.deadline_ms in
  match
    phase req.metrics phases "lp" (fun () ->
        Set_lp.lp_relaxation ~mode:req.lp_mode ~deadline
          ~metrics:req.metrics req.inst)
  with
  | exception D.Expired ->
      greedy_fallback ~phases ~method_used:Round_set ~stats:[] req
  | `Infeasible ->
      make_result ~metrics:req.metrics ~phases ~method_used:Round_set
        ~stats:[ ("infeasible", "true") ]
        ()
  | `Optimal (x, bound) ->
      let solution =
        phase req.metrics phases "round" (fun () ->
            Rounding.threshold req.inst ~x)
      in
      make_result ~metrics:req.metrics ~phases ~method_used:Round_set
        ~stats:
          [ ("lmax", string_of_int (Instance.lmax (Instance.to_sets req.inst))) ]
        ~solution ~lower_bound:bound ()

let exact (req : request) =
  let phases = ref [] in
  let deadline = D.of_ms_opt req.deadline_ms in
  (* The static pre-pass is sound (optimum-preserving) but not free,
     so it runs as its own phase; [static_fixing = false] skips it
     and reproduces the pre-flow search byte for byte. *)
  let attr_fixings =
    if req.static_fixing then
      phase req.metrics phases "flow" (fun () ->
          Flow.fixings (Flow.analyze ~metrics:req.metrics req.inst))
    else []
  in
  let outcome, (st : Lp.Ilp.stats) =
    phase req.metrics phases "search" (fun () ->
        Exact.solve_with_stats ~node_limit:req.node_limit ~mode:req.lp_mode
          ~jobs:req.jobs ~deadline ~metrics:req.metrics ?seed:req.warm_seed
          ~attr_fixings req.inst)
  in
  let stats =
    (match req.warm_seed with
    | Some _ -> [ ("warm_seeded", "true") ]
    | None -> [])
    @ [
      ("static_fixed", string_of_int (List.length attr_fixings));
      ("nodes", string_of_int st.nodes);
      ("node_limit", string_of_int st.node_limit);
      ("limit_hit", string_of_bool st.limit_hit);
      ("deadline_hit", string_of_bool st.deadline_hit);
      ("lp_mode", Lp.Simplex.mode_to_string req.lp_mode);
    ]
    @
    match st.root_bound with
    | Some b -> [ ("root_bound", Rat.to_string b) ]
    | None -> []
  in
  match outcome with
  | Some { Exact.solution; proven_optimal } ->
      let lower_bound =
        if proven_optimal then Some solution.Solution.cost
        else st.root_bound
      in
      make_result ~metrics:req.metrics ~phases ~method_used:Exact ~stats
        ~solution ?lower_bound ~proven_optimal ()
  | None ->
      make_result ~metrics:req.metrics ~phases ~method_used:Exact
        ~stats:(("infeasible", "true") :: stats)
        ()

let brute (req : request) =
  let phases = ref [] in
  match
    phase req.metrics phases "enumerate" (fun () ->
        Exact.brute_force_checked req.inst)
  with
  | Error (Exact.Too_many_attrs { attrs; limit } as r) ->
      make_result ~metrics:req.metrics ~phases ~method_used:Brute
        ~stats:
          [
            ("refused", Exact.refusal_to_string r);
            ("attrs", string_of_int attrs);
            ("limit", string_of_int limit);
          ]
        ()
  | Ok None ->
      make_result ~metrics:req.metrics ~phases ~method_used:Brute
        ~stats:[ ("infeasible", "true") ]
        ()
  | Ok (Some s) ->
      make_result ~metrics:req.metrics ~phases ~method_used:Brute ~solution:s
        ~lower_bound:s.Solution.cost ~proven_optimal:true ()

(* The [Auto] policy. The paper gives no rule for choosing among its
   solvers; this one was fitted on the seed-42 scenario corpus
   (bench/corpus.ml): with the flow-pruned branch and bound, exhaustive
   enumeration only beats the exact search up to 4 attributes. Under a
   budget too tight for a branch-and-bound root LP, an LP-rounding
   method matched to the constraint form runs instead, or greedy when
   l_max > 3 weakens the l_max-approximation of threshold rounding.
   Neither branch can pick a method that refuses the instance: 4 is far
   below [Exact.brute_force_limit], and [Round_card] needs every module
   in cardinality form. *)
let brute_attrs = 4
let tight_deadline_ms = 25.

let choose (req : request) =
  let inst = req.inst in
  if List.length (Instance.attrs inst) <= brute_attrs then Brute
  else
    match req.deadline_ms with
    | Some ms when ms < tight_deadline_ms ->
        if Exact.all_cardinality inst then Round_card
        else if Instance.lmax inst <= 3 then Round_set
        else Greedy
    | _ -> Exact

let run req =
  let m = match req.meth with Auto -> choose req | m -> m in
  let solve =
    match m with
    | Greedy -> greedy
    | Round_card -> round_card
    | Round_set -> round_set
    | Exact -> exact
    | Brute -> brute
    | Auto -> assert false (* [choose] never answers [Auto] *)
  in
  (* The whole solve runs inside a "solve" span, so per-phase spans
     nest under "solve/..." and the same measurement yields the
     "total" timing entry. *)
  let r, total_ms =
    Svutil.Metrics.timed req.metrics "solve" (fun () ->
        solve { req with meth = m })
  in
  {
    r with
    method_used = m;
    timings = r.timings @ [ ("total", total_ms) ];
    (* Solved-state capture: the instance this result answers, plus
       its canonical form (lazily — most callers never pay for it).
       [Core.Delta] re-solves edits against this. *)
    state =
      Some { solved_inst = req.inst; canon = lazy (Canon.form req.inst) };
  }
