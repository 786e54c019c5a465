(* Two-phase sparse revised simplex with a product-form-of-the-inverse
   eta file and warm-startable bases.

   Standard form and column numbering:
   - columns [0 .. nvars-1]            original variables
   - columns [nvars .. art_start-1]    slack / surplus variables
   - columns [art_start .. ncols-1]    artificial variables (phase 1 only)
   Rows with a negative rhs are negated first (flipping the relation), so
   the all-artificial/slack starting basis is primal feasible.

   Pricing: Dantzig's rule (most negative reduced cost) by default, with
   a permanent switch to Bland's rule after a run of degenerate pivots;
   the leaving row always follows Bland's tie-breaking (minimum ratio,
   ties to the smallest basic column).  Since Bland's rule terminates
   from any basis, the combination terminates even on degenerate
   problems while keeping Dantzig's practical pivot counts.

   Pricing is incremental.  Each [optimize] call prices the reduced
   costs d_j = c_j − y·A_j once, from y = B⁻ᵀc_B.  Each pivot (entering
   column q, leaving row r) then does one FTRAN (the entering direction)
   and one BTRAN (ρ = e_rᵀB⁻¹, row r of the inverse) and updates d
   along the pivot row α_r = ρA: d_j −= θ·α_rj with θ = d_q/α_rq, read
   row by row from a row-major copy of A over the rows with ρ_i ≠ 0
   and the nonbasic columns only; then d_q = 0 and d_leaving = −θ.  In
   exact Q the maintained d equals the re-priced one, so both rules
   choose the same columns as a full re-pricing every pivot would (the
   differential suite test/test_pricing_diff.ml holds the engine to
   that re-pricing engine, kept in test/pricing_oracle.ml).  The float
   instance shares the code and may drift by rounding; it is never
   trusted with a certified answer.

   Basis lifecycle: a feasibility solve can start from a structural
   {!Basis.t} proposal; the library's only proposer is the float
   pre-solve behind [--lp-presolve].  The proposed columns are
   re-factorised from scratch; dependent or vanished entries are
   dropped, missing slots filled with unit columns, and columns basic
   at a negative value dropped and re-factored until the point is
   primal feasible — so a wrong or corrupted descriptor costs pivots,
   never correctness.  A recovered basis with every artificial at zero
   is a feasibility WITNESS (phase 1 is skipped entirely); one with
   positive artificials left is a warm phase-1 start that only has to
   drive those few out.

   The differential suite checks this engine's results and certificates
   against the dense two-phase tableau in test/dense_oracle.ml. *)

type budget = { mutable pivots_left : int; total : int }

let budget n = { pivots_left = n; total = n }
let consumed b = b.total - b.pivots_left

exception Pivot_limit

(* Telemetry (Hs_obs): metric cells are registered once here, outside
   every functor, so the exact and float instantiations share them. *)
module Obs = struct
  module M = Hs_obs.Metrics

  let pivots = M.counter "simplex.pivots"
  let degenerate = M.counter "simplex.degenerate_pivots"
  let solves = M.counter "simplex.solves"

  (* Work inside the solves, summed per solve in the core and added
     here once when the solve ends: matrix entries read to price or
     update reduced costs, and off-diagonal eta entries read by FTRAN
     and BTRAN. *)
  let pricing_entries = M.counter "simplex.pricing_entries"
  let eta_entries = M.counter "simplex.eta_entries"

  let pivots_per_solve =
    M.histogram ~buckets:[ 10; 30; 100; 300; 1_000; 10_000 ] "simplex.pivots_per_solve"

  (* Basis-proposal accounting ({!Make.feasible_basis} [?warm], fed by
     the float pre-solve): [hits] counts proposals accepted after exact
     re-verification (a witness skips phase 1, a start shortens it),
     [misses] proposals rejected (fell back to a cold phase 1), and
     [repairs] basis slots that had to be rebuilt — dropped dependent or
     out-of-range columns plus unit-column completions. *)
  let warm_hits = M.counter "lp.warm_start.hits"
  let warm_misses = M.counter "lp.warm_start.misses"
  let warm_repairs = M.counter "lp.warm_start.repairs"

  (* Float pre-solve runs feeding basis guesses to the exact engine. *)
  let presolve_guesses = M.counter "lp.presolve.guesses"
end

(* Charge one pivot: the metrics counter and the budget meter decrement
   at the same site, so `simplex.pivots` always equals the consumed
   allowance. *)
let charge budget =
  (match budget with
  | None -> ()
  | Some b ->
      if b.pivots_left <= 0 then raise Pivot_limit
      else b.pivots_left <- b.pivots_left - 1);
  Hs_obs.Metrics.incr Obs.pivots

let presolve = ref false
let set_presolve b = presolve := b

(* The engine proper, uninstrumented: {!Make} wraps its entry points in
   spans and solve counters, and the float pre-solve calls the float
   instance directly so its guesses are not observed as solves. *)
module Core (F : Field.S) = struct
  module S = Sparse.Make (F)

  type solution = { x : F.t array; objective : F.t; basic : bool array }
  type result = Optimal of solution | Infeasible | Unbounded
  type pricing = Bland | Dantzig
  type feasibility = Feasible of solution | Infeasible_certificate of F.t array
  type certified = { primal : solution; duals : F.t array }

  type certified_result =
    | Certified_optimal of certified
    | Certified_infeasible of F.t array
    | Certified_unbounded

  (* Per original constraint, in declaration order: how it was
     normalised and which auxiliary columns it received. *)
  type row_info = {
    flipped : bool;  (* the row was negated to make its rhs non-negative *)
    surplus : int option;  (* column of a -1 slack (>= rows) *)
    slack : int option;  (* column of a +1 slack (<= rows) *)
    art : int option;  (* column of the artificial, if any *)
  }

  (* One elementary pivot matrix: applying it to a vector divides the
     pivot row by [e_piv] and eliminates the off-row entries, whose
     rows and values are the parallel arrays [e_idx] (ascending) and
     [e_val]. *)
  type eta = { e_row : int; e_piv : F.t; e_idx : int array; e_val : F.t array }

  type core = {
    rows : S.t;  (* A over the FULL standard form, row-major *)
    cols : S.t;
        (* CSR of Aᵀ over the FULL standard form (aux and artificial
           columns included): row [j] of [cols] is column [j] of A. *)
    nrows : int;
    nvars : int;
    art_start : int;
    ncols : int;
    b : F.t array;  (* normalised (non-negative) right-hand sides *)
    row_info : row_info array;
    init_basic : int array;  (* row → its natural unit column *)
    aux_owner : int array;  (* aux column → owning row, -1 elsewhere *)
    basis : int array;  (* row → basic column *)
    in_basis : bool array;
    redundant : bool array;
        (* rows whose artificial could not be driven out: they are
           combinations of the other rows, so their direction component
           is identically zero in exact arithmetic and they never block
           a ratio test *)
    xb : F.t array;  (* row → value of the basic variable *)
    mutable etas : eta array;  (* eta file, oldest first, [0, neta) live *)
    mutable neta : int;
    mutable pricing_entries : int;  (* per-solve sums for Obs *)
    mutable eta_entries : int;
  }

  (* ---- eta file --------------------------------------------------- *)

  let push_eta core e =
    if core.neta = Array.length core.etas then begin
      let cap = Stdlib.max 8 (2 * core.neta) in
      let bigger = Array.make cap e in
      Array.blit core.etas 0 bigger 0 core.neta;
      core.etas <- bigger
    end;
    core.etas.(core.neta) <- e;
    core.neta <- core.neta + 1

  (* The eta of a pivot on [row] with column direction [d]. *)
  let make_eta core (d : F.t array) ~row =
    let n = ref 0 in
    for i = 0 to core.nrows - 1 do
      if i <> row && F.sign d.(i) <> 0 then incr n
    done;
    let e_idx = Array.make !n 0 and e_val = Array.make !n F.zero in
    let k = ref 0 in
    for i = 0 to core.nrows - 1 do
      if i <> row && F.sign d.(i) <> 0 then begin
        e_idx.(!k) <- i;
        e_val.(!k) <- d.(i);
        incr k
      end
    done;
    { e_row = row; e_piv = d.(row); e_idx; e_val }

  (* FTRAN: v ← B⁻¹ v, applying the etas oldest first. *)
  let ftran core (v : F.t array) =
    let reads = ref 0 in
    for k = 0 to core.neta - 1 do
      let e = core.etas.(k) in
      let t = F.div v.(e.e_row) e.e_piv in
      v.(e.e_row) <- t;
      if F.sign t <> 0 then begin
        let idx = e.e_idx and vals = e.e_val in
        for m = 0 to Array.length idx - 1 do
          let i = idx.(m) in
          v.(i) <- F.sub v.(i) (F.mul vals.(m) t)
        done;
        reads := !reads + Array.length idx
      end
    done;
    core.eta_entries <- core.eta_entries + !reads

  (* BTRAN: w ← B⁻ᵀ w, applying the etas newest first (transposed). *)
  let btran core (w : F.t array) =
    let reads = ref 0 in
    for k = core.neta - 1 downto 0 do
      let e = core.etas.(k) in
      let idx = e.e_idx and vals = e.e_val in
      let acc = ref w.(e.e_row) in
      for m = 0 to Array.length idx - 1 do
        let wi = w.(idx.(m)) in
        if F.sign wi <> 0 then acc := F.sub !acc (F.mul vals.(m) wi)
      done;
      reads := !reads + Array.length idx;
      w.(e.e_row) <- F.div !acc e.e_piv
    done;
    core.eta_entries <- core.eta_entries + !reads

  (* The entering column's direction d = B⁻¹ A_col. *)
  let direction core col =
    let d = Array.make core.nrows F.zero in
    S.scatter_row core.cols col d;
    ftran core d;
    d

  (* Simplex multipliers for a cost vector: y = B⁻ᵀ c_B, so that the
     reduced cost of column j is c_j − y·A_j. *)
  let btran_costs core (cost : F.t array) =
    let y = Array.init core.nrows (fun r -> cost.(core.basis.(r))) in
    btran core y;
    y

  (* Reduced costs priced in full from y = B⁻ᵀc_B for the nonbasic
     columns below [max_col]; every other entry, the basic columns'
     included, is exactly zero. *)
  let price core (cost : F.t array) ~max_col =
    let y = btran_costs core cost in
    let d = Array.make (Stdlib.max 1 core.ncols) F.zero in
    let a = core.cols in
    let reads = ref 0 in
    for j = 0 to max_col - 1 do
      if not core.in_basis.(j) then begin
        d.(j) <- F.sub cost.(j) (S.dot_row a j y);
        reads := !reads + a.rptr.(j + 1) - a.rptr.(j)
      end
    done;
    core.pricing_entries <- core.pricing_entries + !reads;
    d

  (* Bring [d] from the current basis to the one after pivoting column
     [col] in at [row] with direction [dir] (called before the pivot):
     d ← d − θ·ρA with ρ = e_rowᵀB⁻¹ and θ = d_col/dir_row, row by row
     over the rows with ρ_i ≠ 0 and only for nonbasic columns below
     [max_col] (a basic column's pivot-row entry is zero, except the
     leaving one's, which is one).  Then d_col = 0 and the leaving
     column's d is −θ. *)
  let update_prices core (d : F.t array) ~row ~col ~max_col (dir : F.t array) =
    let theta = F.div d.(col) dir.(row) in
    let rho = Array.make core.nrows F.zero in
    rho.(row) <- F.one;
    btran core rho;
    let a = core.rows in
    let reads = ref 0 in
    for i = 0 to core.nrows - 1 do
      if F.sign rho.(i) <> 0 then begin
        let s = F.mul theta rho.(i) in
        for k = a.rptr.(i) to a.rptr.(i + 1) - 1 do
          let j = a.cidx.(k) in
          if j < max_col && not core.in_basis.(j) then
            d.(j) <- F.sub d.(j) (F.mul s a.vals.(k))
        done;
        reads := !reads + a.rptr.(i + 1) - a.rptr.(i)
      end
    done;
    core.pricing_entries <- core.pricing_entries + !reads;
    d.(col) <- F.zero;
    d.(core.basis.(row)) <- F.neg theta

  (* c·x at the current basis (nonbasic variables are zero). *)
  let objective_value core (cost : F.t array) =
    let acc = ref F.zero in
    for r = 0 to core.nrows - 1 do
      let c = cost.(core.basis.(r)) in
      if F.sign c <> 0 then acc := F.add !acc (F.mul c core.xb.(r))
    done;
    !acc

  (* ---- standard form ---------------------------------------------- *)

  let build (p : F.t Lp_problem.t) =
    let open Lp_problem in
    let nvars = p.nvars in
    let raw =
      List.map
        (fun c ->
          (* Ensure a non-negative rhs, flipping the relation as needed. *)
          if F.sign c.rhs < 0 then
            ( List.map (fun (v, k) -> (v, F.neg k)) c.terms,
              (match c.rel with Le -> Ge | Ge -> Le | Eq -> Eq),
              F.neg c.rhs,
              true )
          else (c.terms, c.rel, c.rhs, false))
        p.constrs
    in
    let nrows = List.length raw in
    let nslack =
      List.fold_left
        (fun acc (_, rel, _, _) -> match rel with Le | Ge -> acc + 1 | Eq -> acc)
        0 raw
    in
    let nart =
      List.fold_left
        (fun acc (_, rel, _, _) -> match rel with Ge | Eq -> acc + 1 | Le -> acc)
        0 raw
    in
    let art_start = nvars + nslack in
    let ncols = art_start + nart in
    let rows = Array.make nrows [] in
    let b = Array.make nrows F.zero in
    let row_info =
      Array.make nrows { flipped = false; surplus = None; slack = None; art = None }
    in
    let init_basic = Array.make nrows (-1) in
    let next_slack = ref nvars and next_art = ref art_start in
    List.iteri
      (fun r (terms, rel, rhs, flipped) ->
        b.(r) <- rhs;
        let aux =
          match rel with
          | Lp_problem.Le ->
              let s = !next_slack in
              incr next_slack;
              init_basic.(r) <- s;
              row_info.(r) <- { flipped; surplus = None; slack = Some s; art = None };
              [ (s, F.one) ]
          | Lp_problem.Ge ->
              let s = !next_slack in
              incr next_slack;
              let a = !next_art in
              incr next_art;
              init_basic.(r) <- a;
              row_info.(r) <- { flipped; surplus = Some s; slack = None; art = Some a };
              [ (s, F.neg F.one); (a, F.one) ]
          | Lp_problem.Eq ->
              let a = !next_art in
              incr next_art;
              init_basic.(r) <- a;
              row_info.(r) <- { flipped; surplus = None; slack = None; art = Some a };
              [ (a, F.one) ]
        in
        rows.(r) <- terms @ aux)
      raw;
    let a = S.of_rows ~nrows ~ncols rows in
    let aux_owner = Array.make (Stdlib.max 1 ncols) (-1) in
    Array.iteri
      (fun r info ->
        (match info.surplus with Some c -> aux_owner.(c) <- r | None -> ());
        match info.slack with Some c -> aux_owner.(c) <- r | None -> ())
      row_info;
    let in_basis = Array.make (Stdlib.max 1 ncols) false in
    Array.iter (fun c -> in_basis.(c) <- true) init_basic;
    {
      rows = a;
      cols = S.transpose a;
      nrows;
      nvars;
      art_start;
      ncols;
      b;
      row_info;
      init_basic;
      aux_owner;
      basis = Array.copy init_basic;
      in_basis;
      redundant = Array.make (Stdlib.max 1 nrows) false;
      xb = Array.copy b;
      etas = [||];
      neta = 0;
      pricing_entries = 0;
      eta_entries = 0;
    }

  let reset_cold core =
    core.neta <- 0;
    Array.blit core.init_basic 0 core.basis 0 core.nrows;
    Array.fill core.in_basis 0 (Array.length core.in_basis) false;
    Array.iter (fun c -> core.in_basis.(c) <- true) core.init_basic;
    Array.fill core.redundant 0 (Array.length core.redundant) false;
    Array.blit core.b 0 core.xb 0 core.nrows

  (* ---- pivoting ----------------------------------------------------- *)

  (* Entering rules over the allowed column range of the maintained
     reduced costs: Bland picks the smallest eligible index
     (anti-cycling), Dantzig the most negative reduced cost with ties to
     the earlier column.  Basic columns read exactly zero, so neither
     rule needs to skip them. *)
  let entering pricing (d : F.t array) ~max_col =
    match pricing with
    | Bland ->
        let rec go j =
          if j >= max_col then None else if F.sign d.(j) < 0 then Some j else go (j + 1)
        in
        go 0
    | Dantzig ->
        let best = ref (-1) in
        for j = 0 to max_col - 1 do
          if F.sign d.(j) < 0 && (!best < 0 || F.compare d.(j) d.(!best) < 0) then best := j
        done;
        if !best < 0 then None else Some !best

  (* Bland leaving rule: minimum ratio, ties by smallest basic column.
     Redundant rows are skipped — their direction component is zero in
     exact arithmetic anyway (the row is a combination of the others). *)
  let leaving core (d : F.t array) =
    let best = ref None in
    for r = 0 to core.nrows - 1 do
      if (not core.redundant.(r)) && F.sign d.(r) > 0 then begin
        let ratio = F.div core.xb.(r) d.(r) in
        match !best with
        | None -> best := Some (r, ratio)
        | Some (br, bratio) ->
            let c = F.compare ratio bratio in
            if c < 0 || (c = 0 && core.basis.(r) < core.basis.(br)) then
              best := Some (r, ratio)
      end
    done;
    Option.map fst !best

  let pivot core ~row ~col (d : F.t array) =
    let t = F.div core.xb.(row) d.(row) in
    let e = make_eta core d ~row in
    if F.sign t <> 0 then
      for k = 0 to Array.length e.e_idx - 1 do
        let i = e.e_idx.(k) in
        core.xb.(i) <- F.sub core.xb.(i) (F.mul e.e_val.(k) t)
      done;
    push_eta core e;
    core.xb.(row) <- t;
    core.in_basis.(core.basis.(row)) <- false;
    core.in_basis.(col) <- true;
    core.basis.(row) <- col

  (* Dantzig pricing does not terminate on its own under degeneracy; we
     count consecutive zero-progress (degenerate) pivots and fall back to
     Bland's rule permanently once they exceed a threshold, which
     guarantees termination from any basis.  [budget], if given, is
     decremented once per pivot across every call sharing it;
     {!Pivot_limit} is raised when it runs dry. *)
  let optimize ?(pricing = Dantzig) ?budget core cost ~max_col =
    let degenerate_limit = (2 * core.ncols) + 16 in
    let d = price core cost ~max_col in
    let rec go pricing degenerate =
      match entering pricing d ~max_col with
      | None -> `Optimal
      | Some col -> (
          let dir = direction core col in
          match leaving core dir with
          | None -> `Unbounded
          | Some row ->
              let zero_progress = F.sign core.xb.(row) = 0 in
              charge budget;
              if zero_progress then Hs_obs.Metrics.incr Obs.degenerate;
              update_prices core d ~row ~col ~max_col dir;
              pivot core ~row ~col dir;
              if pricing = Bland then go Bland 0
              else if zero_progress then
                if degenerate + 1 > degenerate_limit then go Bland 0
                else go pricing (degenerate + 1)
              else go pricing 0)
    in
    go pricing 0

  (* Phase 1: minimise the sum of artificial variables.  Returns the
     feasibility verdict and the simplex multipliers at the optimum (the
     Farkas witness when infeasible). *)
  let phase1 ?pricing ?budget core =
    let cost = Array.make (Stdlib.max 1 core.ncols) F.zero in
    for j = core.art_start to core.ncols - 1 do
      cost.(j) <- F.one
    done;
    match optimize ?pricing ?budget core cost ~max_col:core.ncols with
    | `Unbounded ->
        (* The phase-1 objective is bounded below by zero. *)
        assert false
    | `Optimal ->
        let feasible = F.sign (objective_value core cost) = 0 in
        (feasible, btran_costs core cost)

  (* The per-row dual value with the rhs-flip undone — used both for the
     Farkas witness (phase-1 multipliers: when the phase-1 optimum is
     positive, weak duality gives yᵀb > 0) and the optimality
     certificate (phase-2 multipliers). *)
  let row_duals core (y : F.t array) =
    Array.mapi
      (fun r info -> if info.flipped then F.neg y.(r) else y.(r))
      core.row_info

  (* Remove artificial variables from the basis row by row: pivot on the
     first structural/aux column with a nonzero transformed entry, else
     mark the row redundant.  These exchange pivots are free — they are
     not charged to the budget. *)
  let drive_out core =
    for r = 0 to core.nrows - 1 do
      if (not core.redundant.(r)) && core.basis.(r) >= core.art_start then begin
        let beta = Array.make core.nrows F.zero in
        beta.(r) <- F.one;
        btran core beta;
        (* beta·A_j = entry (r, j) of the current tableau *)
        let rec find j =
          if j >= core.art_start then None
          else if F.sign (S.dot_row core.cols j beta) <> 0 then Some j
          else find (j + 1)
        in
        match find 0 with
        | Some col ->
            let d = direction core col in
            pivot core ~row:r ~col d
        | None -> core.redundant.(r) <- true
      end
    done

  let extract core ~objective =
    let x = Array.make core.nvars F.zero in
    let basic = Array.make core.nvars false in
    for r = 0 to core.nrows - 1 do
      let bcol = core.basis.(r) in
      if bcol < core.nvars then begin
        x.(bcol) <- core.xb.(r);
        basic.(bcol) <- true
      end
    done;
    { x; objective; basic }

  (* ---- basis lifecycle -------------------------------------------- *)

  let describe core : Basis.t =
    let acc = ref [] in
    for r = core.nrows - 1 downto 0 do
      let bcol = core.basis.(r) in
      if bcol < core.nvars then acc := Basis.Var bcol :: !acc
      else if bcol < core.art_start then
        acc := Basis.Aux core.aux_owner.(bcol) :: !acc
    done;
    !acc

  (* Re-factorise a proposed column set from scratch: FTRAN each column
     through the partial eta file, pivot it at the unassigned row with
     the largest magnitude (ties to the smallest row), drop columns that
     come out dependent, then complete the remaining rows with their
     natural unit columns.  Because the placed columns are nonsingular
     on their pivot rows, the unit columns of the unassigned rows always
     span the rest — completion cannot fail in exact arithmetic (float
     tolerance can make it fail, in which case the caller goes cold).
     Returns [(success, repaired_slots)]. *)
  let try_basis core cols =
    core.neta <- 0;
    let assigned = Array.make (Stdlib.max 1 core.nrows) false in
    let nbasis = Array.make (Stdlib.max 1 core.nrows) (-1) in
    let placed = ref 0 in
    let place col =
      let d = Array.make core.nrows F.zero in
      S.scatter_row core.cols col d;
      ftran core d;
      let best = ref (-1) and bestm = ref 0.0 in
      for r = 0 to core.nrows - 1 do
        if (not assigned.(r)) && F.sign d.(r) <> 0 then begin
          let m = Float.abs (F.to_float d.(r)) in
          if !best < 0 || m > !bestm then begin
            best := r;
            bestm := m
          end
        end
      done;
      if !best < 0 then false
      else begin
        let r = !best in
        push_eta core (make_eta core d ~row:r);
        assigned.(r) <- true;
        nbasis.(r) <- col;
        incr placed;
        true
      end
    in
    List.iter (fun col -> ignore (place col)) cols;
    let repairs = core.nrows - !placed in
    let progress = ref true in
    while !placed < core.nrows && !progress do
      progress := false;
      for r = 0 to core.nrows - 1 do
        if not assigned.(r) then
          if place core.init_basic.(r) then progress := true
      done
    done;
    if !placed < core.nrows then (false, repairs)
    else begin
      Array.blit nbasis 0 core.basis 0 core.nrows;
      Array.fill core.in_basis 0 (Array.length core.in_basis) false;
      Array.iter (fun c -> core.in_basis.(c) <- true) core.basis;
      Array.fill core.redundant 0 (Array.length core.redundant) false;
      Array.blit core.b 0 core.xb 0 core.nrows;
      ftran core core.xb;
      (true, repairs)
    end

  (* What a loaded basis is good for.  [Warm_witness]: x_B ≥ 0 with
     every basic artificial at zero — the basis proves feasibility
     outright and phase 1 is skipped entirely.  [Warm_start]: x_B ≥ 0
     but some artificial sits basic at a positive level (rows the
     proposal left to their unit columns) — a legal
     primal-feasible start for phase 1, which then only has to drive
     out those few artificials instead of all of them.  [Warm_cold]:
     no primal-feasible point could be recovered from the proposal even
     after repair, and the solve falls back to the all-artificial cold
     basis. *)
  type warm_status = Warm_witness | Warm_start | Warm_cold

  let warm_classify core =
    let neg = ref false and art = ref false in
    for r = 0 to core.nrows - 1 do
      let s = F.sign core.xb.(r) in
      if s < 0 then neg := true
      else if s <> 0 && core.basis.(r) >= core.art_start then art := true
    done;
    if !neg then Warm_cold else if !art then Warm_start else Warm_witness

  (* Load a proposal, repairing it towards primal feasibility: when the
     factored basis carries negative basic values (a float guess
     re-factored in exact Q need not give B⁻¹b ≥ 0), drop the
     proposal columns basic at the negative rows and re-factor, letting
     those rows fall back to their natural unit columns.  Each round
     removes at least one column, and the empty proposal degenerates to
     the cold all-artificial basis with x_B = b̄ ≥ 0, so the loop always
     terminates — usually after one or two rounds, with only the few
     repaired rows left for phase 1 to clean up. *)
  let rec load_repairing core cols ~dropped =
    let ok, unplaced = try_basis core cols in
    if not ok then (Warm_cold, dropped + unplaced)
    else
      match warm_classify core with
      | (Warm_witness | Warm_start) as status -> (status, dropped + unplaced)
      | Warm_cold ->
          let offending = ref [] in
          for r = 0 to core.nrows - 1 do
            if F.sign core.xb.(r) < 0 then offending := core.basis.(r) :: !offending
          done;
          let keep = List.filter (fun c -> not (List.mem c !offending)) cols in
          if List.compare_lengths keep cols = 0 then (Warm_cold, dropped + unplaced)
          else
            load_repairing core keep
              ~dropped:(dropped + List.length cols - List.length keep)

  let try_warm core warm =
    match warm with
    | None | Some [] -> Warm_cold
    | Some proposal ->
        let cols =
          List.filter_map
            (function
              | Basis.Var v -> if v >= 0 && v < core.nvars then Some v else None
              | Basis.Aux i ->
                  if i < 0 || i >= core.nrows then None
                  else (
                    match core.row_info.(i) with
                    | { slack = Some c; _ } -> Some c
                    | { surplus = Some c; _ } -> Some c
                    | _ -> None))
            proposal
          |> List.sort_uniq Int.compare
        in
        if cols = [] then begin
          Hs_obs.Metrics.incr Obs.warm_misses;
          Warm_cold
        end
        else begin
          match load_repairing core cols ~dropped:0 with
          | (Warm_witness | Warm_start) as status, repairs ->
              Hs_obs.Metrics.incr Obs.warm_hits;
              if repairs > 0 then Hs_obs.Metrics.add Obs.warm_repairs repairs;
              status
          | Warm_cold, _ ->
              reset_cold core;
              Hs_obs.Metrics.incr Obs.warm_misses;
              Warm_cold
        end

  (* ---- entry points ------------------------------------------------- *)

  (* Build the standard form of [p] and run [f] on it, adding the
     solve's work counts to the registry when it ends, however it ends
     (an exhausted budget still records the partial solve). *)
  let with_core (p : F.t Lp_problem.t) f =
    let core = build p in
    Fun.protect
      ~finally:(fun () ->
        Hs_obs.Metrics.add Obs.pricing_entries core.pricing_entries;
        Hs_obs.Metrics.add Obs.eta_entries core.eta_entries)
      (fun () -> f core)

  let costs_of core (objective : (int * F.t) list) =
    let cost = Array.make (Stdlib.max 1 core.ncols) F.zero in
    List.iter (fun (v, c) -> cost.(v) <- F.add cost.(v) c) objective;
    cost

  let solve ?pricing ?budget ?(maximize = false) (p : F.t Lp_problem.t) =
    let p =
      if maximize then
        {
          p with
          Lp_problem.objective =
            List.map (fun (v, c) -> (v, F.neg c)) p.Lp_problem.objective;
        }
      else p
    in
    with_core p @@ fun core ->
    if not (fst (phase1 ?pricing ?budget core)) then Infeasible
    else begin
      let cost = costs_of core p.Lp_problem.objective in
      drive_out core;
      match optimize ?pricing ?budget core cost ~max_col:core.art_start with
      | `Unbounded -> Unbounded
      | `Optimal ->
          let obj = objective_value core cost in
          let obj = if maximize then F.neg obj else obj in
          Optimal (extract core ~objective:obj)
    end

  (* Feasibility via the proposal when it is an outright witness, else
     phase 1 — run from the proposed basis when it was at least a valid
     start, from the cold all-artificial basis otherwise. *)
  let feasible_basis ?pricing ?budget ?warm (p : F.t Lp_problem.t) =
    with_core { p with Lp_problem.objective = [] } @@ fun core ->
    let feasible =
      match try_warm core warm with
      | Warm_witness -> true
      | Warm_start | Warm_cold -> fst (phase1 ?pricing ?budget core)
    in
    if not feasible then None
    else begin
      drive_out core;
      Some (extract core ~objective:F.zero, describe core)
    end

  let feasible_certified ?pricing ?budget (p : F.t Lp_problem.t) =
    with_core { p with Lp_problem.objective = [] } @@ fun core ->
    let ok, y = phase1 ?pricing ?budget core in
    if not ok then Infeasible_certificate (row_duals core y)
    else begin
      drive_out core;
      Feasible (extract core ~objective:F.zero)
    end

  let solve_certified (p : F.t Lp_problem.t) =
    with_core p @@ fun core ->
    let ok, y1 = phase1 core in
    if not ok then Certified_infeasible (row_duals core y1)
    else begin
      let cost = costs_of core p.Lp_problem.objective in
      drive_out core;
      match optimize core cost ~max_col:core.art_start with
      | `Unbounded -> Certified_unbounded
      | `Optimal ->
          let y = btran_costs core cost in
          Certified_optimal
            {
              primal = extract core ~objective:(objective_value core cost);
              duals = row_duals core y;
            }
    end
end

module Float_core = Core (Field.Float)

module Make (F : Field.S) = struct
  module C = Core (F)
  include C

  (* Per-solve telemetry: one span per public solver entry and the
     pivots-per-solve histogram (delta of the shared pivot counter).
     Exception-safe so an exhausted budget still records the partial
     solve. *)
  let instrumented ~what (p : F.t Lp_problem.t) f =
    Hs_obs.Metrics.incr Obs.solves;
    let before = Hs_obs.Metrics.value Obs.pivots in
    let observe () =
      Hs_obs.Metrics.observe Obs.pivots_per_solve (Hs_obs.Metrics.value Obs.pivots - before)
    in
    Hs_obs.Tracer.with_span ~cat:"simplex"
      ~args:
        [
          ("what", Hs_obs.Tracer.Str what);
          ("nvars", Hs_obs.Tracer.Int p.Lp_problem.nvars);
          ("rows", Hs_obs.Tracer.Int (List.length p.Lp_problem.constrs));
        ]
      "simplex.solve"
      (fun () -> Fun.protect ~finally:observe f)

  (* Float pre-solve: guess the optimal basis numerically and promote it
     to the exact field as a basis proposal.  The guess is re-verified
     by the exact loader, so float noise costs pivots, never
     correctness — in particular a float "infeasible" is never trusted
     (we just keep the caller's own proposal).  The guess's pivots are
     charged to the caller's [budget] like the exact solve's, so the
     budget bounds all simplex work and its consumed count equals
     [simplex.pivots]. *)
  let presolve_hint ?budget (p : F.t Lp_problem.t) warm =
    Hs_obs.Metrics.incr Obs.presolve_guesses;
    let fp =
      {
        Lp_problem.nvars = p.Lp_problem.nvars;
        objective = [];
        constrs =
          List.map
            (fun (c : F.t Lp_problem.constr) ->
              {
                Lp_problem.cname = c.Lp_problem.cname;
                terms =
                  List.map (fun (v, k) -> (v, F.to_float k)) c.Lp_problem.terms;
                rel = c.Lp_problem.rel;
                rhs = F.to_float c.Lp_problem.rhs;
              })
            p.Lp_problem.constrs;
      }
    in
    match Float_core.feasible_basis ?budget ?warm fp with
    | Some (_, basis) -> Some basis
    | None -> warm
    | exception Division_by_zero -> warm

  let solve ?pricing ?budget ?maximize (p : F.t Lp_problem.t) =
    instrumented ~what:"solve" p @@ fun () -> C.solve ?pricing ?budget ?maximize p

  let feasible ?pricing ?budget p =
    match solve ?pricing ?budget { p with Lp_problem.objective = [] } with
    | Optimal s -> Some s
    | Infeasible -> None
    | Unbounded -> assert false

  let feasible_basis ?pricing ?budget ?warm (p : F.t Lp_problem.t) =
    instrumented ~what:"feasible_basis" p @@ fun () ->
    let warm = match warm with Some [] -> None | w -> w in
    let warm = if !presolve && F.exact then presolve_hint ?budget p warm else warm in
    C.feasible_basis ?pricing ?budget ?warm p

  let feasible_certified ?pricing ?budget p =
    instrumented ~what:"feasible_certified" p @@ fun () ->
    C.feasible_certified ?pricing ?budget p

  let solve_certified p =
    instrumented ~what:"solve_certified" p @@ fun () -> C.solve_certified p

  (* Independent verification of an optimality certificate for the
     minimisation problem: the primal point is feasible, the duals are
     feasible for the dual LP (sign conditions per row sense and
     Aᵀy ≤ c), and strong duality holds (cᵀx = bᵀy). *)
  let check_optimal (p : F.t Lp_problem.t) (c : certified) =
    let open Lp_problem in
    let constrs = Array.of_list p.constrs in
    let x = c.primal.x and y = c.duals in
    Array.length y = Array.length constrs
    && Array.length x = p.nvars
    && Array.for_all (fun v -> F.sign v >= 0) x
    (* primal feasibility *)
    && Array.for_all2
         (fun (ct : F.t constr) _ ->
           let lhs =
             List.fold_left (fun acc (v, a) -> F.add acc (F.mul a x.(v))) F.zero ct.terms
           in
           match ct.rel with
           | Le -> F.compare lhs ct.rhs <= 0
           | Ge -> F.compare lhs ct.rhs >= 0
           | Eq -> F.sign (F.sub lhs ct.rhs) = 0)
         constrs y
    (* dual sign conditions *)
    && Array.for_all2
         (fun (ct : F.t constr) yi ->
           match ct.rel with
           | Le -> F.sign yi <= 0
           | Ge -> F.sign yi >= 0
           | Eq -> true)
         constrs y
    &&
    (* dual feasibility Aᵀy ≤ c, and strong duality cᵀx = bᵀy *)
    let col = Array.make p.nvars F.zero in
    let yb = ref F.zero in
    Array.iteri
      (fun i (ct : F.t constr) ->
        List.iter (fun (v, a) -> col.(v) <- F.add col.(v) (F.mul y.(i) a)) ct.terms;
        yb := F.add !yb (F.mul y.(i) ct.rhs))
      constrs;
    let cvec = Array.make p.nvars F.zero in
    List.iter (fun (v, cv) -> cvec.(v) <- F.add cvec.(v) cv) p.objective;
    let dual_feasible =
      Array.for_all2 (fun colv cv -> F.compare colv cv <= 0) col cvec
    in
    let cx =
      Array.to_list (Array.mapi (fun v cv -> F.mul cv x.(v)) cvec)
      |> List.fold_left F.add F.zero
    in
    dual_feasible && F.sign (F.sub cx !yb) = 0 && F.sign (F.sub cx c.primal.objective) = 0

  (* Independent verification of a Farkas certificate: y respects the
     row-sense sign conditions, prices every variable column
     non-positively, and prices the right-hand side positively — so no
     non-negative x can satisfy the system. *)
  let check_farkas (p : F.t Lp_problem.t) (y : F.t array) =
    let open Lp_problem in
    let constrs = Array.of_list p.constrs in
    Array.length y = Array.length constrs
    && Array.for_all2
         (fun (c : F.t constr) yi ->
           match c.rel with
           | Le -> F.sign yi <= 0
           | Ge -> F.sign yi >= 0
           | Eq -> true)
         constrs y
    &&
    let col = Array.make p.nvars F.zero in
    let rhs = ref F.zero in
    Array.iteri
      (fun i (c : F.t constr) ->
        List.iter (fun (v, a) -> col.(v) <- F.add col.(v) (F.mul y.(i) a)) c.terms;
        rhs := F.add !rhs (F.mul y.(i) c.rhs))
      constrs;
    Array.for_all (fun cv -> F.sign cv <= 0) col && F.sign !rhs > 0
end
