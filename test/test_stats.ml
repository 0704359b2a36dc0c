(* Tests for the statistics substrate: distributions against known
   values, summaries against direct computation, series. *)

open Stats

let check_close ?(eps = 1e-9) what expected actual =
  Alcotest.(check (float eps)) what expected actual

(* ------------------------------------------------------------------ *)
(* Dist                                                                *)
(* ------------------------------------------------------------------ *)

let test_log_gamma_known () =
  (* Γ(1) = Γ(2) = 1, Γ(5) = 24, Γ(0.5) = sqrt(pi) *)
  check_close ~eps:1e-10 "lnΓ(1)" 0.0 (Dist.log_gamma 1.0);
  check_close ~eps:1e-10 "lnΓ(2)" 0.0 (Dist.log_gamma 2.0);
  check_close ~eps:1e-9 "lnΓ(5)" (log 24.0) (Dist.log_gamma 5.0);
  check_close ~eps:1e-9 "lnΓ(0.5)" (0.5 *. log Float.pi) (Dist.log_gamma 0.5)

let test_log_factorial () =
  check_close "0!" 0.0 (Dist.log_factorial 0);
  check_close "1!" 0.0 (Dist.log_factorial 1);
  check_close ~eps:1e-9 "10!" (log 3628800.0) (Dist.log_factorial 10);
  (* large n goes through log_gamma; compare with Stirling-summed exact value *)
  let exact_300 = ref 0.0 in
  for i = 2 to 300 do
    exact_300 := !exact_300 +. log (float_of_int i)
  done;
  check_close ~eps:1e-6 "300!" !exact_300 (Dist.log_factorial 300)

let test_binomial_pmf_known () =
  (* Binomial(4, 0.5): 1/16, 4/16, 6/16, 4/16, 1/16 *)
  List.iteri
    (fun k expected ->
      check_close ~eps:1e-12 (Printf.sprintf "B(4,.5) k=%d" k) expected
        (Dist.binomial_pmf ~n:4 ~p:0.5 k))
    [ 0.0625; 0.25; 0.375; 0.25; 0.0625 ]

let test_binomial_pmf_sums_to_one () =
  let total = ref 0.0 in
  for k = 0 to 30 do
    total := !total +. Dist.binomial_pmf ~n:30 ~p:0.37 k
  done;
  check_close ~eps:1e-10 "sums to 1" 1.0 !total

let test_binomial_edge_cases () =
  check_close "p=0, k=0" 1.0 (Dist.binomial_pmf ~n:10 ~p:0.0 0);
  check_close "p=0, k=1" 0.0 (Dist.binomial_pmf ~n:10 ~p:0.0 1);
  check_close "p=1, k=n" 1.0 (Dist.binomial_pmf ~n:10 ~p:1.0 10);
  check_close "k out of range" 0.0 (Dist.binomial_pmf ~n:10 ~p:0.5 11);
  check_close "negative k" 0.0 (Dist.binomial_pmf ~n:10 ~p:0.5 (-1))

let test_binomial_cdf_monotone () =
  let prev = ref (-1.0) in
  for k = -1 to 20 do
    let c = Dist.binomial_cdf ~n:20 ~p:0.3 k in
    Alcotest.(check bool) "monotone" true (c >= !prev -. 1e-12);
    prev := c
  done;
  check_close ~eps:1e-12 "cdf at n" 1.0 (Dist.binomial_cdf ~n:20 ~p:0.3 20)

let test_poisson_pmf_known () =
  (* Poisson(6): P(0) = e^-6 ≈ 0.002478752 *)
  check_close ~eps:1e-9 "P(0;6)" (exp (-6.0)) (Dist.poisson_pmf ~lambda:6.0 0);
  (* mode of Poisson(6) at k=5 and 6 with equal mass 0.16062... *)
  check_close ~eps:1e-9 "P(5;6)=P(6;6)"
    (Dist.poisson_pmf ~lambda:6.0 5)
    (Dist.poisson_pmf ~lambda:6.0 6)

let test_poisson_pmf_sums_to_one () =
  let total = ref 0.0 in
  for k = 0 to 100 do
    total := !total +. Dist.poisson_pmf ~lambda:8.0 k
  done;
  check_close ~eps:1e-9 "sums to ~1" 1.0 !total

let test_poisson_approximates_binomial () =
  (* paper Section 3.2: Binomial(n, C/n) → Poisson(C) for large n *)
  let c = 6.0 and n = 10_000 in
  for k = 0 to 15 do
    let b = Dist.binomial_pmf ~n ~p:(c /. float_of_int n) k in
    let p = Dist.poisson_pmf ~lambda:c k in
    Alcotest.(check bool)
      (Printf.sprintf "close at k=%d" k)
      true
      (abs_float (b -. p) < 1e-3)
  done

let test_prob_no_bufferer_figure4 () =
  (* paper: "When C = 6 ... the probability is only 0.25%" *)
  let p6 = Dist.prob_no_bufferer ~c:6.0 in
  Alcotest.(check bool) "0.25% at C=6" true (abs_float (p6 -. 0.0025) < 2e-4);
  (* decreases exponentially: ratio of consecutive values is e^-1 *)
  for c = 1 to 5 do
    let r =
      Dist.prob_no_bufferer ~c:(float_of_int (c + 1))
      /. Dist.prob_no_bufferer ~c:(float_of_int c)
    in
    check_close ~eps:1e-12 "ratio e^-1" (exp (-1.0)) r
  done

let test_prob_no_request () =
  (* as n → ∞ this approaches e^-p (paper Section 3.1) *)
  let v = Dist.prob_no_request ~n:100_000 ~p:0.5 in
  Alcotest.(check bool) "approaches e^-p" true (abs_float (v -. exp (-0.5)) < 1e-3);
  (* more missing members => lower probability of silence *)
  Alcotest.(check bool) "decreasing in p" true
    (Dist.prob_no_request ~n:100 ~p:0.9 < Dist.prob_no_request ~n:100 ~p:0.1)

let qcheck_binomial_pmf_in_unit =
  QCheck.Test.make ~name:"binomial pmf in [0,1]" ~count:300
    QCheck.(triple (int_bound 50) (float_bound_inclusive 1.0) (int_bound 60))
    (fun (n, p, k) ->
      let v = Dist.binomial_pmf ~n ~p k in
      v >= 0.0 && v <= 1.0 +. 1e-12)

let qcheck_poisson_pmf_in_unit =
  QCheck.Test.make ~name:"poisson pmf in [0,1]" ~count:300
    QCheck.(pair (float_bound_inclusive 50.0) (int_bound 100))
    (fun (lambda, k) ->
      let v = Dist.poisson_pmf ~lambda k in
      v >= 0.0 && v <= 1.0 +. 1e-12)

(* ------------------------------------------------------------------ *)
(* Summary                                                             *)
(* ------------------------------------------------------------------ *)

let test_summary_basic () =
  let s = Summary.create () in
  Summary.add_many s [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check int) "count" 8 (Summary.count s);
  check_close "mean" 5.0 (Summary.mean s);
  (* sample variance of this classic dataset is 32/7 *)
  check_close ~eps:1e-9 "variance" (32.0 /. 7.0) (Summary.variance s);
  check_close "min" 2.0 (Summary.min s);
  check_close "max" 9.0 (Summary.max s);
  check_close "total" 40.0 (Summary.total s)

let test_summary_empty () =
  let s = Summary.create () in
  check_close "mean of empty" 0.0 (Summary.mean s);
  check_close "variance of empty" 0.0 (Summary.variance s);
  Alcotest.check_raises "min raises" (Invalid_argument "Summary.min: empty summary")
    (fun () -> ignore (Summary.min s))

let test_summary_single () =
  let s = Summary.create () in
  Summary.add s 3.5;
  check_close "mean" 3.5 (Summary.mean s);
  check_close "variance" 0.0 (Summary.variance s);
  check_close "median" 3.5 (Summary.median s)

let test_summary_percentiles () =
  let s = Summary.create () in
  Summary.add_many s (List.init 101 float_of_int) (* 0..100 *);
  check_close "p0" 0.0 (Summary.percentile s 0.0);
  check_close "p50" 50.0 (Summary.percentile s 50.0);
  check_close "p95" 95.0 (Summary.percentile s 95.0);
  check_close "p100" 100.0 (Summary.percentile s 100.0)

let test_summary_percentile_interpolation () =
  let s = Summary.create () in
  Summary.add_many s [ 10.0; 20.0 ];
  check_close "p25 interpolates" 12.5 (Summary.percentile s 25.0)

let check_summary_equals_direct what direct m =
  Alcotest.(check int) (what ^ " count") (Summary.count direct) (Summary.count m);
  check_close ~eps:1e-9 (what ^ " mean") (Summary.mean direct) (Summary.mean m);
  check_close ~eps:1e-9 (what ^ " variance") (Summary.variance direct) (Summary.variance m);
  check_close ~eps:1e-9 (what ^ " total") (Summary.total direct) (Summary.total m);
  if Summary.count direct > 0 then begin
    check_close (what ^ " min") (Summary.min direct) (Summary.min m);
    check_close (what ^ " max") (Summary.max direct) (Summary.max m);
    check_close ~eps:1e-9 (what ^ " median") (Summary.median direct) (Summary.median m)
  end

let test_summary_merge () =
  let a = Summary.create () and b = Summary.create () in
  Summary.add_many a [ 1.0; 2.0; 3.0 ];
  Summary.add_many b [ 10.0; 20.0 ];
  Summary.merge a b;
  let direct = Summary.create () in
  Summary.add_many direct [ 1.0; 2.0; 3.0; 10.0; 20.0 ];
  check_summary_equals_direct "merge" direct a;
  (* the source is left intact *)
  Alcotest.(check int) "source count" 2 (Summary.count b);
  check_close "source mean" 15.0 (Summary.mean b)

let test_summary_merge_empty () =
  (* empty into empty *)
  let a = Summary.create () and b = Summary.create () in
  Summary.merge a b;
  check_summary_equals_direct "empty+empty" (Summary.create ()) a;
  (* empty into non-empty: no-op *)
  let a = Summary.create () in
  Summary.add_many a [ 4.0; 6.0 ];
  Summary.merge a (Summary.create ());
  let direct = Summary.create () in
  Summary.add_many direct [ 4.0; 6.0 ];
  check_summary_equals_direct "nonempty+empty" direct a;
  (* non-empty into empty: adopts the source's stats *)
  let a = Summary.create () and b = Summary.create () in
  Summary.add_many b [ 4.0; 6.0 ];
  Summary.merge a b;
  check_summary_equals_direct "empty+nonempty" direct a

let test_summary_merge_single () =
  let a = Summary.create () and b = Summary.create () in
  Summary.add a 2.0;
  Summary.add b 7.0;
  Summary.merge a b;
  let direct = Summary.create () in
  Summary.add_many direct [ 2.0; 7.0 ];
  check_summary_equals_direct "single+single" direct a

let qcheck_summary_merge_matches_sequential =
  QCheck.Test.make ~name:"merge equals sequential add stream" ~count:300
    QCheck.(pair (list (float_bound_inclusive 1000.0)) (list (float_bound_inclusive 1000.0)))
    (fun (xs, ys) ->
      let a = Summary.create () and b = Summary.create () in
      Summary.add_many a xs;
      Summary.add_many b ys;
      Summary.merge a b;
      let direct = Summary.create () in
      Summary.add_many direct (xs @ ys);
      Summary.count a = Summary.count direct
      && abs_float (Summary.mean a -. Summary.mean direct) < 1e-6
      && abs_float (Summary.variance a -. Summary.variance direct) < 1e-4
      && abs_float (Summary.total a -. Summary.total direct) < 1e-6
      && (Summary.count direct = 0
          || (Summary.min a = Summary.min direct
              && Summary.max a = Summary.max direct
              && abs_float (Summary.median a -. Summary.median direct) < 1e-9)))

let test_summary_ci () =
  let s = Summary.create () in
  Summary.add_many s (List.init 100 (fun i -> float_of_int (i mod 10)));
  let hw = Summary.ci95_halfwidth s in
  check_close ~eps:1e-9 "ci formula" (1.96 *. Summary.stddev s /. 10.0) hw

let qcheck_summary_matches_direct =
  QCheck.Test.make ~name:"welford mean/var match direct computation" ~count:200
    QCheck.(list_of_size Gen.(int_range 2 50) (float_bound_inclusive 1000.0))
    (fun xs ->
      let s = Summary.create () in
      Summary.add_many s xs;
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0.0 xs /. n in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs /. (n -. 1.0)
      in
      abs_float (Summary.mean s -. mean) < 1e-6
      && abs_float (Summary.variance s -. var) < 1e-4)

(* ------------------------------------------------------------------ *)
(* Series                                                              *)
(* ------------------------------------------------------------------ *)

let test_series_sorting () =
  let s = Series.create () in
  Series.record s ~time:5.0 2.0;
  Series.record s ~time:1.0 1.0;
  Series.record s ~time:3.0 4.0;
  let pts = Series.points s in
  Alcotest.(check (list (float 1e-9))) "sorted times" [ 1.0; 3.0; 5.0 ]
    (Array.to_list (Array.map fst pts))

let test_series_value_at () =
  let s = Series.create () in
  Series.record s ~time:10.0 1.0;
  Series.record s ~time:20.0 2.0;
  Alcotest.(check (option (float 1e-9))) "before first" None (Series.value_at s 5.0);
  Alcotest.(check (option (float 1e-9))) "at point" (Some 1.0) (Series.value_at s 10.0);
  Alcotest.(check (option (float 1e-9))) "between (step)" (Some 1.0) (Series.value_at s 15.0);
  Alcotest.(check (option (float 1e-9))) "after last" (Some 2.0) (Series.value_at s 99.0)

let test_series_equal_times_last_wins () =
  let s = Series.create () in
  Series.record s ~time:10.0 1.0;
  Series.record s ~time:10.0 7.0;
  Alcotest.(check (option (float 1e-9))) "latest insertion wins" (Some 7.0)
    (Series.value_at s 10.0)

let test_series_sample () =
  let s = Series.create () in
  Series.record s ~time:10.0 1.0;
  Series.record s ~time:20.0 2.0;
  let sampled = Series.sample s ~times:[| 0.0; 10.0; 15.0; 25.0 |] in
  Alcotest.(check (list (float 1e-9))) "step resample" [ 1.0; 1.0; 1.0; 2.0 ]
    (Array.to_list (Array.map snd sampled))

let test_series_map_and_csv () =
  let s = Series.create ~name:"buffered" () in
  Series.record s ~time:1.0 2.0;
  let doubled = Series.map_values (fun v -> v *. 2.0) s in
  Alcotest.(check (option (float 1e-9))) "mapped" (Some 4.0) (Series.value_at doubled 1.0);
  Alcotest.(check (list string)) "csv" [ "1.000000,2.000000" ] (Series.to_csv_rows s);
  Alcotest.(check string) "name preserved" "buffered" (Series.name doubled)

let qcheck_series_value_at_is_last_leq =
  QCheck.Test.make ~name:"value_at = last point with time <= query" ~count:200
    QCheck.(pair (list (pair (float_bound_inclusive 100.0) (float_bound_inclusive 10.0)))
              (float_bound_inclusive 100.0))
    (fun (pts, q) ->
      let s = Series.create () in
      List.iter (fun (time, v) -> Series.record s ~time v) pts;
      let expected =
        List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) pts
        |> List.filter (fun (time, _) -> time <= q)
        |> List.rev
        |> function [] -> None | (_, v) :: _ -> Some v
      in
      Series.value_at s q = expected)

let suites =
  [
    ( "stats.dist",
      [
        Alcotest.test_case "log_gamma known values" `Quick test_log_gamma_known;
        Alcotest.test_case "log_factorial" `Quick test_log_factorial;
        Alcotest.test_case "binomial known values" `Quick test_binomial_pmf_known;
        Alcotest.test_case "binomial sums to 1" `Quick test_binomial_pmf_sums_to_one;
        Alcotest.test_case "binomial edges" `Quick test_binomial_edge_cases;
        Alcotest.test_case "binomial cdf monotone" `Quick test_binomial_cdf_monotone;
        Alcotest.test_case "poisson known values" `Quick test_poisson_pmf_known;
        Alcotest.test_case "poisson sums to 1" `Quick test_poisson_pmf_sums_to_one;
        Alcotest.test_case "poisson limit of binomial" `Quick test_poisson_approximates_binomial;
        Alcotest.test_case "figure 4 value" `Quick test_prob_no_bufferer_figure4;
        Alcotest.test_case "prob_no_request" `Quick test_prob_no_request;
        QCheck_alcotest.to_alcotest qcheck_binomial_pmf_in_unit;
        QCheck_alcotest.to_alcotest qcheck_poisson_pmf_in_unit;
      ] );
    ( "stats.summary",
      [
        Alcotest.test_case "basic moments" `Quick test_summary_basic;
        Alcotest.test_case "empty" `Quick test_summary_empty;
        Alcotest.test_case "single sample" `Quick test_summary_single;
        Alcotest.test_case "percentiles" `Quick test_summary_percentiles;
        Alcotest.test_case "percentile interpolation" `Quick test_summary_percentile_interpolation;
        Alcotest.test_case "merge" `Quick test_summary_merge;
        Alcotest.test_case "merge with empty" `Quick test_summary_merge_empty;
        Alcotest.test_case "merge single elements" `Quick test_summary_merge_single;
        Alcotest.test_case "confidence interval" `Quick test_summary_ci;
        QCheck_alcotest.to_alcotest qcheck_summary_matches_direct;
        QCheck_alcotest.to_alcotest qcheck_summary_merge_matches_sequential;
      ] );
    ( "stats.series",
      [
        Alcotest.test_case "sorting" `Quick test_series_sorting;
        Alcotest.test_case "value_at" `Quick test_series_value_at;
        Alcotest.test_case "equal times last wins" `Quick test_series_equal_times_last_wins;
        Alcotest.test_case "sample" `Quick test_series_sample;
        Alcotest.test_case "map and csv" `Quick test_series_map_and_csv;
        QCheck_alcotest.to_alcotest qcheck_series_value_at_is_last_leq;
      ] );
  ]
