(* Reference branch and bound: the pre-overhaul recursive depth-first
   ILP solver that Lp.Ilp replaced, kept as a test oracle. Every node
   is a cold exact-simplex solve, and integrality is snapped with the
   historic fixed 1e-6 tolerance. Presolve, warm starts, best-first
   search and the parallel pool must change time, never answers. *)

module Ilp = Lp.Ilp
module Problem = Lp.Problem

let reference_eps = Rat.of_ints 1 1_000_000
let frac_part r = Rat.sub r (Rat.of_bigint (Rat.floor r))

let solve_reference ?(node_limit = Ilp.default_node_limit)
    (s : Problem.snapshot) =
  let is_integral r =
    let f = frac_part r in
    Rat.leq f reference_eps || Rat.geq f (Rat.sub Rat.one reference_eps)
  in
  let snap r = Rat.of_bigint (Rat.floor (Rat.add r (Rat.of_ints 1 2))) in
  let best : (Rat.t * Rat.t array) option ref = ref None in
  let nodes = ref 0 in
  let limit_hit = ref false in
  let unbounded = ref false in
  let rec go lb ub =
    if !unbounded then ()
    else if !nodes >= node_limit then limit_hit := true
    else begin
      incr nodes;
      match Lp.Simplex.Exact.solve (Problem.with_bounds s ~lb ~ub) with
      | Lp.Simplex.Infeasible -> ()
      | Lp.Simplex.Unbounded -> unbounded := true
      | Lp.Simplex.Optimal { objective; values } ->
          let dominated =
            match !best with Some (b, _) -> Rat.geq objective b | None -> false
          in
          if not dominated then begin
            let branch = ref (-1) in
            let branch_score = ref Rat.zero in
            Array.iteri
              (fun i v ->
                if s.Problem.integer.(i) && not (is_integral v) then begin
                  let f = frac_part v in
                  let score = Rat.min f (Rat.sub Rat.one f) in
                  if Rat.gt score !branch_score then begin
                    branch := i;
                    branch_score := score
                  end
                end)
              values;
            if !branch < 0 then begin
              let snapped =
                Array.mapi
                  (fun i v -> if s.Problem.integer.(i) then snap v else v)
                  values
              in
              let obj =
                Lp.Linexpr.eval s.Problem.objective (fun v -> snapped.(v))
              in
              match !best with
              | Some (b, _) when Rat.leq b obj -> ()
              | _ -> best := Some (obj, snapped)
            end
            else begin
              let i = !branch in
              let fl = Rat.of_bigint (Rat.floor values.(i)) in
              let ub1 = Array.copy ub in
              ub1.(i) <-
                (match ub.(i) with
                | None -> Some fl
                | Some u -> Some (Rat.min u fl));
              go (Array.copy lb) ub1;
              let lb2 = Array.copy lb in
              lb2.(i) <- Rat.max lb.(i) (Rat.add fl Rat.one);
              go lb2 (Array.copy ub)
            end
          end
    end
  in
  go (Array.copy s.Problem.lb) (Array.copy s.Problem.ub);
  if !unbounded then Ilp.Unbounded
  else
    match (!best, !limit_hit) with
    | Some (objective, values), false -> Ilp.Optimal { objective; values }
    | Some (objective, values), true -> Ilp.Feasible { objective; values }
    | None, true -> Ilp.Unknown
    | None, false -> Ilp.Infeasible
