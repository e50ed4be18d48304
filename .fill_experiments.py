# Fill EXPERIMENTS.md placeholders from bench_output.txt, the output of
#   dune exec bin/locmap_cli.exe -- experiments > bench_output.txt
# Run from the repository root.
import re, sys

out = open('bench_output.txt').read()

def after(title, marker, n=1):
    """values on the first line starting with `marker` after `title`"""
    idx = out.index(title)
    m = re.search(r'^%s\s+(.*)$' % marker, out[idx:], re.M)
    vals = m.group(1).split()
    return vals[:n]

def fval(title, marker, n=1):
    return ' / '.join(after(title, marker, n))

subs = {}
subs['{{F2P}}'], subs['{{F2S}}'] = after('Figure 2', 'GEOMEAN', 2)
subs['{{F7A}}'] = fval('Figure 7a', 'MEAN')
subs['{{F7N}}'], subs['{{F7T}}'] = after('Figure 7b', 'GEOMEAN', 2)
subs['{{F7O}}'] = fval('Figure 7c', 'MEAN')
subs['{{F8A}}'] = fval('Figure 8a', 'MEAN', 2)
subs['{{F8N}}'], subs['{{F8T}}'] = after('Figure 8b', 'GEOMEAN', 2)
subs['{{F12}}'] = fval('Figure 12', 'GEOMEAN', 2)
g15 = after('Figure 15', 'GEOMEAN', 2)
g7 = subs['{{F7T}}']; g8 = subs['{{F8T}}']
subs['{{F15}}'] = '%s / %s (vs %s / %s realistic)' % (g15[0], g15[1], g7, g8)
mp = re.findall(r'^(private|shared)\s+(-?[\d.]+)\s*$',
                out[out.index('Multiprogrammed'):], re.M)
subs['{{MP}}'] = ' / '.join(v for _, v in mp[:2])
t3 = re.findall(r'([\d.]+)%', out[out.index('Table 3'):out.index('Table 4')])
t3 = [float(x) for x in t3]
subs['{{T3MOVED}}'] = '%.1f-%.1f %%' % (min(t3), max(t3))

doc = open('EXPERIMENTS.md').read()
for k, v in subs.items():
    if k not in doc:
        print('missing placeholder', k); sys.exit(1)
    doc = doc.replace(k, v)
open('EXPERIMENTS.md', 'w').write(doc)
print('filled:', subs)
