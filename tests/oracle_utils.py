"""Independent brute-force oracles that pin expected values in the tests.

Everything here is deliberately written without the package's own kernels:
explicit rank assignment, fsum-based Pearson, all-pairs drawdown, two-pass
standard deviations. Keep it that way so each check stays dual-route.
"""

import math


def average_ranks(values):
    """Ranks 1..n with ties averaged, assigned by explicit group scanning."""
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for t in range(i, j + 1):
            ranks[order[t]] = avg
        i = j + 1
    return ranks


def pearson(xs, ys):
    """Plain Pearson correlation; 0 when either side has zero variance."""
    n = len(xs)
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    cov = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / n
    var_x = math.fsum((x - mean_x) ** 2 for x in xs) / n
    var_y = math.fsum((y - mean_y) ** 2 for y in ys) / n
    if var_x == 0.0 or var_y == 0.0:
        return 0.0
    return cov / math.sqrt(var_x * var_y)


def spearman(y, y_pred):
    """Rank-then-Pearson Spearman correlation."""
    return pearson(average_ranks(list(y)), average_ranks(list(y_pred)))


def per_sample_ic_oracle(y_true, y_pred):
    """Per-sample mean over channels of the Spearman correlation."""
    b, _, c = len(y_true), len(y_true[0]), len(y_true[0][0])
    out = []
    for i in range(b):
        rhos = []
        for j in range(c):
            truth = [y_true[i][t][j] for t in range(len(y_true[i]))]
            pred = [y_pred[i][t][j] for t in range(len(y_pred[i]))]
            rhos.append(spearman(truth, pred))
        out.append(math.fsum(rhos) / c)
    return out


def ms_ic_oracle(y_true, y_pred):
    per_sample = per_sample_ic_oracle(y_true, y_pred)
    return math.fsum(per_sample) / len(per_sample)


def ms_ir_oracle(y_true, y_pred):
    per_sample = per_sample_ic_oracle(y_true, y_pred)
    mean = math.fsum(per_sample) / len(per_sample)
    var = math.fsum((v - mean) ** 2 for v in per_sample) / len(per_sample)
    return mean / math.sqrt(var)


def max_drawdown_allpairs(net_values):
    """O(T^2) drawdown: worst net[j]/net[i] - 1 over all peaks i <= troughs j."""
    worst = 0.0
    n = len(net_values)
    for i in range(n):
        for j in range(i, n):
            dd = net_values[j] / net_values[i] - 1.0
            if dd < worst:
                worst = dd
    return worst


def two_pass_std(values, ddof):
    """Textbook two-pass standard deviation with an explicit dof denominator."""
    n = len(values)
    mean = math.fsum(values) / n
    ss = math.fsum((v - mean) ** 2 for v in values)
    return math.sqrt(ss / (n - ddof))


def historical_vol_oracle(prices, window):
    """Rolling vol over windows of `window` prices: two-pass over the returns."""
    returns = [math.log(prices[i] / prices[i - 1]) for i in range(1, len(prices))]
    out = []
    for end in range(window - 1, len(prices)):
        chunk = returns[end - window + 1 : end]
        mean = math.fsum(chunk) / len(chunk)
        ss = math.fsum((r - mean) ** 2 for r in chunk)
        out.append(math.sqrt(ss / (window - 1)))
    return out


def panel_csv_text(labels, variables, rows, head=()):
    """A panel file's text, one cell at a time: ``str`` of each label, ``repr`` of each
    float, joined by commas, one row per line."""
    lines = list(head) + [",".join(["timestamp"] + list(variables))]
    for label, row in zip(labels, rows):
        lines.append(",".join([str(label)] + [repr(float(v)) for v in row]))
    return "\n".join(lines) + "\n"


def forecast_csv_text(sample_ids, variables, preds, input_len, model="naive", head=()):
    """A forecast file's text, one record at a time: preds[i][step][j] is the prediction
    of sample sample_ids[i] for step + 1 and variables[j]."""
    lines = list(head) + [f"#L={input_len}", f"#H={len(preds[0])}", f"#model={model}",
                          "#variables=" + ",".join(variables), "sample_id,step,variable,y_pred"]
    for sample, grid in zip(sample_ids, preds):
        for step, values in enumerate(grid, start=1):
            for name, value in zip(variables, values):
                lines.append(f"{int(sample)},{step},{name},{float(value)!r}")
    return "\n".join(lines) + "\n"
