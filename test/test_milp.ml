(* Tests for the LP simplex and the branch-and-bound MILP solver. *)

let checkf = Alcotest.(check (float 1e-4))
let checkb = Alcotest.(check bool)

module M = Milp.Model

(* --- raw LP --- *)

let test_lp_basic_max () =
  (* min -x - 2y st x + y <= 4, x <= 3, y <= 2 -> x=2(slack), y=2: obj -6 *)
  let p =
    {
      Milp.Lp.ncols = 2;
      objective = [| -1.0; -2.0 |];
      rows =
        [
          ([| 1.0; 1.0 |], Milp.Lp.Le, 4.0);
          ([| 1.0; 0.0 |], Milp.Lp.Le, 3.0);
          ([| 0.0; 1.0 |], Milp.Lp.Le, 2.0);
        ];
    }
  in
  let s = Milp.Lp.solve p in
  checkb "optimal" true (s.Milp.Lp.status = Milp.Lp.Optimal);
  checkf "objective" (-6.0) s.objective_value;
  checkf "y at bound" 2.0 s.values.(1)

let test_lp_equality () =
  (* min x + y st x + y = 5, x >= 2  -> obj 5 *)
  let p =
    {
      Milp.Lp.ncols = 2;
      objective = [| 1.0; 1.0 |];
      rows =
        [
          ([| 1.0; 1.0 |], Milp.Lp.Eq, 5.0);
          ([| 1.0; 0.0 |], Milp.Lp.Ge, 2.0);
        ];
    }
  in
  let s = Milp.Lp.solve p in
  checkb "optimal" true (s.Milp.Lp.status = Milp.Lp.Optimal);
  checkf "objective" 5.0 s.objective_value

let test_lp_infeasible () =
  let p =
    {
      Milp.Lp.ncols = 1;
      objective = [| 1.0 |];
      rows =
        [ ([| 1.0 |], Milp.Lp.Le, 1.0); ([| 1.0 |], Milp.Lp.Ge, 2.0) ];
    }
  in
  let s = Milp.Lp.solve p in
  checkb "infeasible" true (s.Milp.Lp.status = Milp.Lp.Infeasible)

let test_lp_unbounded () =
  let p =
    { Milp.Lp.ncols = 1; objective = [| -1.0 |]; rows = [ ([| -1.0 |], Milp.Lp.Le, 0.0) ] }
  in
  let s = Milp.Lp.solve p in
  checkb "unbounded" true (s.Milp.Lp.status = Milp.Lp.Unbounded)

let test_lp_negative_rhs () =
  (* row with negative rhs gets normalised: x >= 1 written as -x <= -1 *)
  let p =
    { Milp.Lp.ncols = 1; objective = [| 1.0 |]; rows = [ ([| -1.0 |], Milp.Lp.Le, -1.0) ] }
  in
  let s = Milp.Lp.solve p in
  checkb "optimal" true (s.Milp.Lp.status = Milp.Lp.Optimal);
  checkf "x = 1" 1.0 s.values.(0)

(* Beale's example: degenerate at the origin, it cycles forever under
   the largest-coefficient rule with a naive ratio test *)
let test_lp_beale_degenerate () =
  let p =
    {
      Milp.Lp.ncols = 4;
      objective = [| -0.75; 150.0; -0.02; 6.0 |];
      rows =
        [
          ([| 0.25; -60.0; -0.04; 9.0 |], Milp.Lp.Le, 0.0);
          ([| 0.5; -90.0; -0.02; 3.0 |], Milp.Lp.Le, 0.0);
          ([| 0.0; 0.0; 1.0; 0.0 |], Milp.Lp.Le, 1.0);
        ];
    }
  in
  let s = Milp.Lp.solve p in
  checkb "optimal" true (s.Milp.Lp.status = Milp.Lp.Optimal);
  checkf "objective" (-0.05) s.objective_value;
  checkf "x1" 0.04 s.values.(0);
  checkf "x3" 1.0 s.values.(2)

(* rows are scaled internally, so multiplying a row by a positive factor
   (a Big-M row next to unit rows) changes neither the optimum nor the
   point returned *)
let test_lp_row_scaling () =
  let mk k1 k2 k3 =
    {
      Milp.Lp.ncols = 3;
      objective = [| -1.0; -2.0; 1.0 |];
      rows =
        [
          ([| k1; k1; 0.0 |], Milp.Lp.Le, 4.0 *. k1);
          ([| k2; 0.0; -.k2 |], Milp.Lp.Le, 3.0 *. k2);
          ([| 0.0; k3; 0.0 |], Milp.Lp.Le, 2.0 *. k3);
          ([| 1.0; 0.0; 1.0 |], Milp.Lp.Ge, 1.0);
        ];
    }
  in
  let base = Milp.Lp.solve (mk 1.0 1.0 1.0) in
  let scaled = Milp.Lp.solve (mk 1e6 1e-6 1e3) in
  checkb "base optimal" true (base.Milp.Lp.status = Milp.Lp.Optimal);
  checkb "scaled optimal" true (scaled.Milp.Lp.status = Milp.Lp.Optimal);
  checkf "base objective" (-6.0) base.objective_value;
  checkf "same objective" base.objective_value scaled.objective_value;
  Array.iteri
    (fun j v -> checkf (Printf.sprintf "x%d" j) v scaled.values.(j))
    base.values

let test_lp_iter_limit () =
  let p =
    {
      Milp.Lp.ncols = 2;
      objective = [| -1.0; -2.0 |];
      rows =
        [
          ([| 1.0; 1.0 |], Milp.Lp.Le, 4.0);
          ([| 0.0; 1.0 |], Milp.Lp.Le, 2.0);
        ];
    }
  in
  let s = Milp.Lp.solve ~iter_limit:1 p in
  checkb "iteration limit reported" true (s.Milp.Lp.status = Milp.Lp.IterLimit)

(* --- model building --- *)

let test_model_bounds_and_shift () =
  let m = M.create () in
  let a = M.continuous m ~lb:(-5.0) "a" in
  let b = M.continuous m ~ub:10.0 "b" in
  M.add_eq m (M.add (M.v a) (M.v b)) (M.const 3.0);
  M.set_objective m (M.add (M.v a) (M.scale 0.5 (M.v b)));
  let s = Milp.Bnb.solve m in
  checkb "optimal" true (s.Milp.Bnb.status = Milp.Bnb.Optimal);
  checkf "a at lower bound" (-5.0) s.values.(M.var_index a);
  checkf "b" 8.0 s.values.(M.var_index b);
  checkf "objective" (-1.0) s.objective_value

let test_model_eval () =
  let m = M.create () in
  let x = M.continuous m "x" in
  let e = M.add (M.term 3.0 x) (M.const 1.0) in
  checkf "eval" 7.0 (M.eval e [| 2.0 |])

let test_model_names () =
  let m = M.create () in
  let x = M.binary m "flag" in
  Alcotest.(check string) "name" "flag" (M.var_name m x);
  checkb "is binary" true (M.is_binary m x);
  let y = M.continuous m "cont" in
  checkb "not binary" false (M.is_binary m y);
  Alcotest.(check int) "binaries" 1 (List.length (M.binaries m))

(* --- branch and bound --- *)

let test_bnb_knapsack () =
  (* max 3a+4b+2c st a+b+c <= 2 -> a,b: obj -7 *)
  let m = M.create () in
  let a = M.binary m "a" and b = M.binary m "b" and c = M.binary m "c" in
  M.add_le m (M.sum [ M.v a; M.v b; M.v c ]) (M.const 2.0);
  M.set_objective m (M.sum [ M.term (-3.0) a; M.term (-4.0) b; M.term (-2.0) c ]);
  let s = Milp.Bnb.solve m in
  checkf "objective" (-7.0) s.objective_value;
  checkf "a" 1.0 s.values.(M.var_index a);
  checkf "b" 1.0 s.values.(M.var_index b);
  checkf "c" 0.0 s.values.(M.var_index c)

let test_bnb_integrality_matters () =
  (* max x + y st 2x + 2y <= 3 over binaries: LP gives 1.5, ILP gives 1 *)
  let m = M.create () in
  let x = M.binary m "x" and y = M.binary m "y" in
  M.add_le m (M.sum [ M.term 2.0 x; M.term 2.0 y ]) (M.const 3.0);
  M.set_objective m (M.sum [ M.term (-1.0) x; M.term (-1.0) y ]);
  let s = Milp.Bnb.solve m in
  checkf "ILP optimum is 1" (-1.0) s.objective_value

let test_bnb_infeasible () =
  let m = M.create () in
  let x = M.binary m "x" in
  M.add_ge m (M.v x) (M.const 2.0);
  M.set_objective m (M.v x);
  let s = Milp.Bnb.solve m in
  checkb "infeasible" true (s.Milp.Bnb.status = Milp.Bnb.Infeasible)

let test_bnb_assignment () =
  (* 3x3 assignment problem with known optimum *)
  let cost = [| [| 4.; 1.; 3. |]; [| 2.; 0.; 5. |]; [| 3.; 2.; 2. |] |] in
  let m = M.create () in
  let x =
    Array.init 3 (fun i ->
        Array.init 3 (fun j -> M.binary m (Printf.sprintf "x%d%d" i j)))
  in
  for i = 0 to 2 do
    M.add_eq m (M.sum (Array.to_list (Array.map M.v x.(i)))) (M.const 1.0);
    M.add_eq m (M.sum (List.init 3 (fun j -> M.v x.(j).(i)))) (M.const 1.0)
  done;
  M.set_objective m
    (M.sum
       (List.concat
          (List.init 3 (fun i ->
               List.init 3 (fun j -> M.term cost.(i).(j) x.(i).(j))))));
  let s = Milp.Bnb.solve m in
  checkb "optimal" true (s.Milp.Bnb.status = Milp.Bnb.Optimal);
  checkf "assignment optimum" 5.0 s.objective_value

(* brute force verification on random small binary programs *)
let prop_bnb_matches_brute_force =
  let gen =
    QCheck2.Gen.(
      let coef = int_range (-5) 5 in
      let n = 4 in
      let row = array_size (return n) coef in
      triple (array_size (return n) coef) (array_size (return 3) row)
        (array_size (return 3) (int_range 1 8)))
  in
  QCheck2.Test.make ~name:"bnb matches brute force on random 0/1 programs"
    ~count:60 gen
    (fun (obj, rows, rhs) ->
      let n = Array.length obj in
      let m = M.create () in
      let xs = Array.init n (fun i -> M.binary m (Printf.sprintf "x%d" i)) in
      Array.iteri
        (fun r row ->
          M.add_le m
            (M.sum (List.init n (fun j -> M.term (float_of_int row.(j)) xs.(j))))
            (M.const (float_of_int rhs.(r))))
        rows;
      M.set_objective m
        (M.sum (List.init n (fun j -> M.term (float_of_int obj.(j)) xs.(j))));
      let s = Milp.Bnb.solve m in
      (* brute force *)
      let best = ref infinity in
      for mask = 0 to (1 lsl n) - 1 do
        let x = Array.init n (fun j -> (mask lsr j) land 1) in
        let feasible =
          Array.for_all
            (fun r ->
              let lhs = ref 0 in
              Array.iteri (fun j c -> lhs := !lhs + (c * x.(j)))
                (rows.(r) : int array);
              !lhs <= rhs.(r))
            (Array.init (Array.length rows) (fun i -> i))
        in
        if feasible then begin
          let v = ref 0 in
          Array.iteri (fun j c -> v := !v + (c * x.(j))) obj;
          if float_of_int !v < !best then best := float_of_int !v
        end
      done;
      match s.Milp.Bnb.status with
      | Milp.Bnb.Optimal -> abs_float (s.objective_value -. !best) < 1e-6
      | Milp.Bnb.Infeasible -> !best = infinity
      | Milp.Bnb.Node_limit -> true)

(* random LPs: whenever the solver claims Optimal, the returned point must
   satisfy every constraint and nonnegativity *)
let prop_lp_solutions_feasible =
  let gen =
    QCheck2.Gen.(
      let coef = int_range (-4) 4 in
      let n = 3 in
      triple
        (array_size (return n) (int_range (-3) 3))
        (array_size (return 4) (array_size (return n) coef))
        (array_size (return 4) (int_range 0 10)))
  in
  QCheck2.Test.make ~name:"LP optimal solutions are feasible" ~count:120 gen
    (fun (obj, rows, rhs) ->
      let p =
        {
          Milp.Lp.ncols = Array.length obj;
          objective = Array.map float_of_int obj;
          rows =
            Array.to_list
              (Array.mapi
                 (fun r row ->
                   ( Array.map float_of_int row,
                     (if r mod 2 = 0 then Milp.Lp.Le else Milp.Lp.Ge),
                     float_of_int rhs.(r) ))
                 rows);
        }
      in
      let s = Milp.Lp.solve p in
      match s.Milp.Lp.status with
      | Milp.Lp.Optimal ->
        Array.for_all (fun x -> x >= -1e-6) s.values
        && List.for_all
             (fun (a, rel, b) ->
               let lhs = ref 0.0 in
               Array.iteri (fun j c -> lhs := !lhs +. (c *. s.values.(j))) a;
               match rel with
               | Milp.Lp.Le -> !lhs <= b +. 1e-6
               | Milp.Lp.Ge -> !lhs >= b -. 1e-6
               | Milp.Lp.Eq -> abs_float (!lhs -. b) < 1e-6)
             p.rows
      | Milp.Lp.Infeasible | Milp.Lp.Unbounded | Milp.Lp.IterLimit -> true)

(* BnB solutions are integral on all binaries and feasible in the model *)
let prop_bnb_solutions_integral =
  QCheck2.Test.make ~name:"BnB solutions are integral and feasible" ~count:60
    QCheck2.Gen.(pair (array_size (return 4) (int_range (-5) 5)) (int_range 1 6))
    (fun (obj, cap) ->
      let m = M.create () in
      let xs =
        Array.init (Array.length obj) (fun i ->
            M.binary m (Printf.sprintf "x%d" i))
      in
      M.add_le m
        (M.sum (Array.to_list (Array.map M.v xs)))
        (M.const (float_of_int cap));
      M.set_objective m
        (M.sum
           (List.init (Array.length obj) (fun j ->
                M.term (float_of_int obj.(j)) xs.(j))));
      let s = Milp.Bnb.solve m in
      match s.Milp.Bnb.status with
      | Milp.Bnb.Optimal ->
        Array.for_all
          (fun x ->
            let v = s.values.(M.var_index x) in
            abs_float (v -. Float.round v) < 1e-6)
          xs
        &&
        let total =
          Array.fold_left (fun acc x -> acc +. s.values.(M.var_index x)) 0.0 xs
        in
        total <= float_of_int cap +. 1e-6
      | _ -> false)

let test_bnb_node_limit () =
  let m = M.create () in
  let xs = Array.init 12 (fun i -> M.binary m (Printf.sprintf "x%d" i)) in
  (* an awkward parity-ish constraint set to force branching *)
  M.add_le m
    (M.sum (Array.to_list (Array.map (fun x -> M.term 2.0 x) xs)))
    (M.const 11.0);
  M.set_objective m
    (M.sum (Array.to_list (Array.map (fun x -> M.term (-1.0) x) xs)));
  let s = Milp.Bnb.solve ~node_limit:3 m in
  checkb "bounded nodes" true (s.Milp.Bnb.nodes_explored <= 3)

let () =
  Alcotest.run "milp"
    [
      ( "lp",
        [
          Alcotest.test_case "basic" `Quick test_lp_basic_max;
          Alcotest.test_case "equality" `Quick test_lp_equality;
          Alcotest.test_case "infeasible" `Quick test_lp_infeasible;
          Alcotest.test_case "unbounded" `Quick test_lp_unbounded;
          Alcotest.test_case "negative rhs" `Quick test_lp_negative_rhs;
          Alcotest.test_case "degenerate (Beale)" `Quick
            test_lp_beale_degenerate;
          Alcotest.test_case "row scaling" `Quick test_lp_row_scaling;
          Alcotest.test_case "iteration limit" `Quick test_lp_iter_limit;
        ] );
      ( "model",
        [
          Alcotest.test_case "bounds and shift" `Quick test_model_bounds_and_shift;
          Alcotest.test_case "eval" `Quick test_model_eval;
          Alcotest.test_case "names" `Quick test_model_names;
        ] );
      ( "bnb",
        [
          Alcotest.test_case "knapsack" `Quick test_bnb_knapsack;
          Alcotest.test_case "integrality" `Quick test_bnb_integrality_matters;
          Alcotest.test_case "infeasible" `Quick test_bnb_infeasible;
          Alcotest.test_case "assignment" `Quick test_bnb_assignment;
          Alcotest.test_case "node limit" `Quick test_bnb_node_limit;
          QCheck_alcotest.to_alcotest prop_bnb_matches_brute_force;
          QCheck_alcotest.to_alcotest prop_lp_solutions_feasible;
          QCheck_alcotest.to_alcotest prop_bnb_solutions_integral;
        ] );
    ]
